"""Effect of the p-norm stress penalty (kappa5) on material grading.

Runs the benchmark with the stress penalty off (kappa5 = 0) and on
(kappa5 = 1).  Without the penalty the compliance drive alone pushes the
grading field chi to its upper bound phi, so almost no material is saved;
with the penalty active, chi is eroded wherever the local von Mises
stress sits comfortably below yield, producing a functionally graded
interior at a modest compliance cost.
"""

import numpy as np

from gradtopo import stress
from gradtopo.config import cantilever_config
from gradtopo.optimizer import Optimizer


def main():
    for kappa5 in (0.0, 1.0):
        config = cantilever_config(kappa5=kappa5)
        print(f"running kappa5 = {kappa5:g} ...")
        state, _ = Optimizer(config).run()
        vm_max = float(stress.von_mises(state.sigma).max())
        interior = state.chi[(state.phi > 0.9)]
        print(f"  compliance {state.compliance:8.1f}   m_chi {state.m_chi:.3f}"
              f"   max von Mises {vm_max:6.1f} MPa"
              f"   interior chi mean {float(np.mean(interior)):.3f}")


if __name__ == "__main__":
    main()
