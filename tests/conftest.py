"""Suite-wide settings, applied before any test module imports numpy.

BLAS runs one thread, as in the benchmark (``perfbench/run.py``). With its
default of one thread per CPU, training gains nothing here, and the suite's
wall time then depends on whatever else the host runs; with one, inference
runs on the multi-worker path that ``micro_net`` takes when BLAS leaves CPUs
free. Subprocesses the tests start inherit the setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
