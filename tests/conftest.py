"""Test-session set-up."""

import os
import sys

import pytest

# One BLAS thread, as under the gradtopo command.  gradtopo sets these only
# when it is imported before numpy, and the test modules import numpy first;
# pytest has not loaded numpy yet when this file runs.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_preset = [var for var in _BLAS_THREADS if var in os.environ]
for _var in _BLAS_THREADS:
    os.environ.setdefault(_var, "1")
# BLAS reads them when numpy loads: once it has (a -p plugin can load it
# first), the setdefault above is too late and the session runs with BLAS's
# own thread count, several times slower on the band solves.
if "numpy" in sys.modules and len(_preset) < len(_BLAS_THREADS):
    raise pytest.UsageError(
        "numpy was imported before tests/conftest.py could set "
        f"{', '.join(_BLAS_THREADS)}; set them to 1 in the environment")

# The package from this checkout, for the subprocesses some tests start
# (pyproject's pythonpath puts it on this process's sys.path only).
_src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_src, os.environ.get("PYTHONPATH")]))
