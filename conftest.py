"""Settings shared by every test directory, applied before any test module loads.

BLAS runs on one thread, set here before numpy loads, as `bench/run.py`
does for its runs.  The benchmark's tests check that pinning, and the
first module to import numpy fixes the thread count for the whole run,
so without this file they passed only when `bench/tests` was collected
first.  With it, the suite gives the same results in any collection order.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
