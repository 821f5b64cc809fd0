"""Two-scale phase-field topology optimization for plane linear elasticity.

The package couples a macroscopic topology field (phi) with a microscopic
stiffness-grading field (chi), minimizing compliance under a volume
constraint and a global p-norm von Mises stress penalty, and exports the
optimized layout as threshold-split, extruded STL geometry.
"""

import os

# The solvers factor narrow bands (half-bandwidth ~100 dofs) whose BLAS blocks
# are too small to share out: with two OpenBLAS threads a 100x50 run on two
# cores took 4x as long as with one.  An explicit setting is kept; this acts
# only when numpy is not loaded yet, as under the gradtopo command.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
