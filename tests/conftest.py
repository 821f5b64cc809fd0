"""Test-session set-up."""

import os

# One BLAS thread, as under the gradtopo command.  gradtopo sets these only
# when it is imported before numpy, and the test modules import numpy first;
# pytest has not loaded numpy yet when this file runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# The package from this checkout, for the subprocesses some tests start
# (pyproject's pythonpath puts it on this process's sys.path only).
_src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_src, os.environ.get("PYTHONPATH")]))
