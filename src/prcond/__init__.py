"""Sharp stability analysis for intensity measurements |Ax|^2.

The package computes the optimal lower and upper Lipschitz constants of
the map x -> (|<a_j, x>|^2)_j between the quotient metric that identifies
a vector with its phase orbit and a p-norm on intensity space, and their
ratio beta, the condition number that governs how well any reconstruction
from intensities can be posed.  Alongside the searches it carries the
exact planar harmonic-frame constants, universal lower bounds on beta, a
certified d=2 oracle, Gaussian ensemble experiments, and a verification
suite for every closed-form identity the other pieces rely on.

Most callers need only a handful of names::

    from prcond import harmonic_frame, condition_number
    report = condition_number(harmonic_frame(7), p=2)

Everything here is re-exported from the topical modules `core`,
`closedform`, `lipschitz`, `oracle`, and `experiment`.
"""

from . import closedform, core, experiment, lipschitz, oracle
from ._version import __version__
from .closedform import *
from .core import *
from .experiment import *
from .lipschitz import *
from .oracle import *

__all__ = [
    "__version__",
    *core.__all__,
    *closedform.__all__,
    *lipschitz.__all__,
    *oracle.__all__,
    *experiment.__all__,
]
