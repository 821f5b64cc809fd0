"""Print the output hashes of README's three 80-iteration benchmark cases.

A change that must keep every result is checked byte for byte against its
parent commit: run this on both commits and compare the tables.

    python3 demos/identity_hashes.py

Each case runs as `gradtopo bench --set optimizer.max_iter=80 [case]` in a
child process with one BLAS thread and GRADTOPO_LOG=WARNING, from the
checkout's own src/.  The table has the first 12 hex digits of the sha256
of history.csv, fields.vtk and fields.npz, in README's layout.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CASES = (
    (),
    ("--set", "material.beta=1"),
    ("--set", "optimizer.kappa5=0", "--set", "domain.body_fy=-0.05"),
)
FILES = ("history.csv", "fields.vtk", "fields.npz")
SRC = Path(__file__).resolve().parent.parent / "src"


def run_case(case, out: Path) -> list[str]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, GRADTOPO_LOG="WARNING", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "gradtopo.cli", "bench",
                           "--set", "optimizer.max_iter=80", *case, "--out", str(out)],
                          env=env, stdout=subprocess.DEVNULL)
    # exit code 2 is "not converged", what 80 iterations end with
    if proc.returncode not in (0, 2):
        sys.exit(f"gradtopo bench {' '.join(case)} exited with {proc.returncode}")
    return [hashlib.sha256((out / name).read_bytes()).hexdigest()[:12] for name in FILES]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        print("| case | " + " | ".join(f"`{name}`" for name in FILES) + " |")
        print("|---|---|---|---|")
        for k, case in enumerate(CASES):
            hashes = run_case(case, Path(tmp) / f"case{k}")
            label = f"`{' '.join(case)}`" if case else "(none)"
            print(f"| {label} | " + " | ".join(f"`{h}`" for h in hashes) + " |",
                  flush=True)


if __name__ == "__main__":
    main()
