"""Print the output hashes of README's three 80-iteration benchmark cases.

A change that must keep every result is checked byte for byte against its
parent commit: run this on both commits and compare the tables.

    python3 demos/identity_hashes.py

Each case runs as `gradtopo bench --set optimizer.max_iter=80 [case]` in a
child process with one BLAS thread and GRADTOPO_LOG=WARNING, from the
checkout's own src/, and then `gradtopo export-stl` (threshold 0.5, height
10) on its fields.npz.  The table has the first 12 hex digits of the sha256
of history.csv, fields.vtk, fields.npz, above.stl and below.stl, in
README's layout; `-` marks an STL the export does not write.
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
STLS = ("above.stl", "below.stl")
SRC = Path(__file__).resolve().parent.parent / "src"


def run_gradtopo(*argv) -> int:
    """Exit code of `gradtopo argv` in a child process on the checkout's src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, GRADTOPO_LOG="WARNING", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "gradtopo.cli", *argv],
                          env=env, stdout=subprocess.DEVNULL).returncode


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12]


def run_case(case, out: Path) -> list[str]:
    code = run_gradtopo("bench", "--set", "optimizer.max_iter=80", *case, "--out", str(out))
    # exit code 2 is "not converged", what 80 iterations end with
    if code not in (0, 2):
        sys.exit(f"gradtopo bench {' '.join(case)} exited with {code}")
    stl = out / "stl"
    code = run_gradtopo("export-stl", "--snapshot", str(out / "fields.npz"),
                        "--threshold", "0.5", "--height", "10", "--out", str(stl))
    if code != 0:
        sys.exit(f"gradtopo export-stl after bench {' '.join(case)} exited with {code}")
    return ([digest(out / name) for name in FILES]
            + [digest(stl / name) if (stl / name).exists() else "-" for name in STLS])


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        print("| case | " + " | ".join(f"`{name}`" for name in FILES + STLS) + " |")
        print("|---" * (1 + len(FILES + STLS)) + "|")
        for k, case in enumerate(CASES):
            hashes = run_case(case, Path(tmp) / f"case{k}")
            label = f"`{' '.join(case)}`" if case else "(none)"
            print(f"| {label} | " + " | ".join(h if h == "-" else f"`{h}`" for h in hashes)
                  + " |", flush=True)


if __name__ == "__main__":
    main()
