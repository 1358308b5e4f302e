"""Package version, recorded in experiment JSON."""

__version__ = "0.1.0"
