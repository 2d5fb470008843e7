"""Set-up shared by the benchmark and its set-up probe.

Set-up is `import pluripot` plus building the domains and boundary
points a workload uses.  Run as a script, this file does exactly that
in a fresh interpreter and prints "ready", so that run.py can time
set-up from process launch:

    python3 perfbench/fixtures.py <workload>
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The ROADMAP off-axis egg4 kernel case: boundary point (0.6, y) with
# 0.6^2 + y^4 = 1, interior point (0.1, 0.1).
OFF_AXIS_X0 = 0.6


def import_pluripot():
    """Import pluripot from the checkout's src/, never from elsewhere."""
    if not (SRC / "pluripot" / "__init__.py").is_file():
        raise ImportError(f"no pluripot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pluripot
    import pluripot.cli
    if pathlib.Path(pluripot.__file__).resolve().parent != SRC / "pluripot":
        raise ImportError(f"pluripot imported from {pluripot.__file__}, not {SRC}")
    return pluripot


def egg4_rho(pts):
    """|z0|^2 + |z1|^4 - 1 on (..., 2) arrays: egg4 as a general convex domain."""
    import numpy as np
    return np.abs(pts[..., 0]) ** 2 + np.abs(pts[..., 1]) ** 4 - 1.0


def build(pp, workload):
    """Domains and boundary points of one workload, by name."""
    import numpy as np
    e1 = np.array([1.0, 0.0], dtype=complex)
    out = {}
    if workload == "verify":
        for label in ("ball2", "egg4", "egg2"):
            out[label] = pp.make_domain(label)
            out[label + ".e1"] = pp.boundary_point(out[label], e1)
    elif workload == "sweep":
        out["egg4"] = pp.make_domain("egg4")
        out["egg4.e1"] = pp.boundary_point(out["egg4"], e1)
        out["ball2"] = pp.make_domain("ball2")
    elif workload == "offcatalogue":
        out["egg4"] = pp.make_domain("egg4")
        out["egg2"] = pp.make_domain("egg2")
        out["gc_egg4"] = pp.make_domain({"kind": "general_convex", "n": 2}, rho=egg4_rho)
        y = (1.0 - OFF_AXIS_X0 ** 2) ** 0.25
        out["egg4.off_axis"] = pp.boundary_point(out["egg4"],
                                                 np.array([OFF_AXIS_X0, y], dtype=complex))
        out["gc_egg4.e1"] = pp.boundary_point(out["gc_egg4"], e1)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


if __name__ == "__main__":
    build(import_pluripot(), sys.argv[1])
    print("ready", flush=True)
