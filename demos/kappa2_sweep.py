"""Sensitivity of the graded design to the chi-regularization weight kappa2.

Repeats the benchmark with kappa2 in {40, 4000, 400000} plus the
single-material reference (beta = 1) and prints a compliance / material
fraction summary table.  Larger kappa2 smooths the stiffness grading;
the single-material design is the stiffest but uses the full material
budget everywhere.
"""

from gradtopo.config import cantilever_config
from gradtopo.optimizer import Optimizer

VARIANTS = [
    ("single material (beta=1)", dict(beta=1.0)),
    ("kappa2 = 40", dict(kappa2=40.0)),
    ("kappa2 = 4000", dict(kappa2=4000.0)),
    ("kappa2 = 400000", dict(kappa2=400000.0)),
]


def main():
    rows = []
    for label, kw in VARIANTS:
        config = cantilever_config(**kw)
        print(f"running {label} ...")
        state, _ = Optimizer(config).run()
        rows.append((label, state.compliance, state.m_chi,
                     "YES" if state.converged else "NO", state.iter))

    print()
    print(f"{'variant':26s} {'compliance':>12s} {'m_chi':>8s} "
          f"{'converged':>10s} {'iters':>6s}")
    for label, c, m, conv, it in rows:
        print(f"{label:26s} {c:12.1f} {m:8.3f} {conv:>10s} {it:6d}")


if __name__ == "__main__":
    main()
