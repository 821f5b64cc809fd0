"""Run the built-in cantilever benchmark and export the printable design.

Produces, under out/benchmark/:
  history.csv   per-iteration record of the optimization
  fields.vtk    final phi/chi/displacement fields (legacy VTK)
  fields.npz    final fields, the snapshot `gradtopo export-stl` reads
  above.stl     extruded region with chi above the threshold (stiff infill)
  below.stl     extruded region with chi below the threshold (soft infill)
"""

import os

from gradtopo import export
from gradtopo.config import cantilever_config
from gradtopo.optimizer import Optimizer


def main():
    outdir = os.path.join("out", "benchmark")
    os.makedirs(outdir, exist_ok=True)

    config = cantilever_config()
    opt = Optimizer(config)

    def progress(state, rec):
        if rec.iter % 100 == 0:
            print(f"  iter {rec.iter:4d}  compliance {rec.compliance:8.1f}  "
                  f"m_chi {rec.m_chi:.3f}  delta_phi {rec.delta_phi:.2e}")

    print(f"running kappa2={config.kappa2:g} on a "
          f"{config.mesh_nx}x{config.mesh_ny} mesh ...")
    state, history = opt.run(callback=progress)
    print(f"{'converged' if state.converged else 'iteration cap'} after "
          f"{state.iter} iterations: compliance {state.compliance:.1f}, "
          f"m_chi {state.m_chi:.3f}")

    export.write_run(outdir, state, history, opt.mesh)
    # split the material region phi > 0.5 at chi = 0.5 into two printable
    # solids, extruded 10 mm
    for path, n in export.split_to_stl(state.phi, state.chi, opt.mesh,
                                       threshold=0.5, height=10.0, outdir=outdir):
        print(f"wrote {path} ({n} triangles)")


if __name__ == "__main__":
    main()
