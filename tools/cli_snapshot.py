"""Fingerprint the output bytes of a fixed set of pluripot CLI commands.

    python tools/cli_snapshot.py [CHECKOUT] > snapshot.txt

Runs every command of COMMANDS with the sources under CHECKOUT/src
(default: the checkout this script lives in), each in a fresh
interpreter with an --out file, and prints one line per command:

    <exit code> <sha256 of the --out file> <sha256 of stdout> <sha256 of stderr>  <command>

A missing --out file prints as "-".  Two checkouts produce the same
bytes on these commands exactly when their outputs diff clean:

    python tools/cli_snapshot.py /path/to/other/checkout > before.txt
    python tools/cli_snapshot.py > after.txt
    diff before.txt after.txt
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

SUITES = ("poisson_horofunction", "main2_estimate", "monge_ampere", "reproducing",
          "dilation", "annulus", "asymptoticity", "phragmen_lindelof")

_GRIDS = ["--grid-t=-0.95:0.95:60", "--grid-s=-1:1:60"]

COMMANDS = (
    # Every suite at its default seed and at seed 1.
    [["verify", suite] for suite in SUITES]
    + [["verify", suite, "--seed", "1"] for suite in SUITES]
    # The stacked Hessian at n = 3 and on egg6, the ball3 and disc ladders,
    # the egg ladders (egg2 on the ball route), the stacked kernel
    # comparisons on egg6 and ball3, the egg2 boundary distances, the
    # stacked dilation suite and the array projection Newton on egg4 and
    # egg6 samples.
    + [line.split() for line in """\
verify monge_ampere --domain ball3
verify monge_ampere --domain egg6
verify poisson_horofunction --domain ball3
verify poisson_horofunction --domain disc
verify poisson_horofunction --domain egg6
verify poisson_horofunction --domain egg2
verify phragmen_lindelof --domain egg6
verify phragmen_lindelof --domain ball3
verify monge_ampere --domain egg2
verify dilation --seed 2
verify monge_ampere --domain egg4 --seed 2
verify main2_estimate --domain egg6""".splitlines()]
    # The two sweeps of perfbench/run.py --workload sweep --seed 1.
    + [["sweep", "poisson", "--domain", "egg4", "--xi", "e1",
        "--z", "t,0.6023643249400513*s*(cos(t)+j*sin(t))"] + _GRIDS,
       ["sweep", "green", "--domain", "ball2", "--w=0.2702782177955612,-0.19229741707058662j",
        "--z", "0.9*t,0.4*s"] + _GRIDS]
    # Catalogued evaluations: every route of every quantity.
    + [line.split() for line in """\
eval poisson --domain disc --xi e1 --z 0.5
eval poisson --domain half_plane --xi 0 --z -0.5
eval poisson --domain ball2 --xi e1 --z 0.5,0
eval poisson --domain ball3 --xi e1 --z 0.1,0.2,0.3
eval poisson --domain egg4 --xi e1 --z 0.2,0.3 --format csv
eval poisson --domain egg4 --xi 0.6+0.8j,0 --z 0.2,0.3j
eval green --domain ball3 --w 0,0,0 --z 0.1,0.2,0.3
eval green --domain egg4 --w 0,0 --z 0.3,0.2
eval green --domain egg4 --w 0.2,0.3 --z 0.3,0.2
eval horofunction --domain egg4 --xi e1 --p 0.1,0 --z 0.3,0.2
eval horofunction --domain ball2 --xi e1 --p 0,0 --z 0.3,0.2
eval horofunction --domain disc --xi e1 --p 0 --z 0.4j
eval horofunction --domain annulus --r 0.5 --xi 1 --p 0.7 --z 0.6+0.2j
eval distance --domain annulus --r 0.5 --z 0.7 --w 0.71
eval distance --domain egg4 --w 0.1,0.5 --z 0.4,0.1j
eval density --domain disc --xi e1
eval density --domain ball2 --xi 0.6,0.8
eval density --domain egg4 --xi e1
eval density --domain egg4 --xi 0.6,0.8944271909999159
eval density --domain egg6 --xi 0.6,0.9283177667225558""".splitlines()]
    # The sandwich route beyond egg4: off-axis pairs on egg6 and on
    # ellipsoids in C^3.
    + [line.split() for line in """\
eval distance --domain egg6 --w 0.1,0.5 --z 0.4,0.1j
eval distance --domain ellipsoid --m 4,4 --w 0.1,0.3,0.2j --z 0.4,0.1j,0.3
eval green --domain ellipsoid --m 2,4 --w 0.1,0.3,0.2j --z 0.4,0.1j,0.3""".splitlines()]
    # Points outside the domain: each exits 2 naming the point.
    + [line.split() for line in """\
eval poisson --domain ball2 --xi e1 --z 2,0
eval distance --domain egg4 --z 0.1,0 --w 2,0
eval green --domain ball2 --w 0,0 --z 1,0""".splitlines()]
    # Two distinct points both near the origin of the ball.
    + [line.split() for line in """\
eval distance --domain ball2 --w 4.3e-15,0 --z 0,0
eval green --domain ball2 --w 4.3e-15,0 --z 0,0""".splitlines()]
    # Sweeps through every stacked route and its fallbacks: the Green
    # pole, rows outside the domain, a per-row xi, and egg4 Green rows on
    # the catalogue and sandwich routes.
    + [line.split() for line in """\
sweep green --domain ball2 --w 0,0 --z 0.5*t,0 --grid-t=-0.95:0.95:5
sweep distance --domain disc --w 0.2j --z 0.9*t+0.3*j*s --grid-t=-1:1:9 --grid-s=-1:1:5
sweep distance --domain ball3 --w=0.1,0.2,-0.3j --z 0.9*t,0.4*s,0.1*j --grid-t=-1:1:9 --grid-s=-1:1:5
sweep horofunction --domain ball2 --xi e1 --p 0.1,0.2j --z 0.9*t,0.4*s --grid-t=-1:1:9 --grid-s=-1:1:5
sweep poisson --domain disc --xi e1 --z 1.2*t+0.5*j*s --grid-t=-1:1:9 --grid-s=-1:1:5
sweep poisson --domain half_plane --xi 0 --z t+j*s --grid-t=-1:1:9 --grid-s=-1:1:5
sweep poisson --domain ball2 --xi cos(t),sin(t) --z 0.3,0.2j --grid-t=0:3:7
sweep green --domain egg4 --w 0.2,0.3 --z 0.5*t,0.3*s --grid-t=-0.9:0.9:3 --grid-s=-1:1:3""".splitlines()]
    # The stacked interior check: rows exactly on the boundary (t = +-1),
    # where rho is 0 on the stack as on the point alone, and a template
    # whose arithmetic fails on some rows of a 2-D grid.
    + [line.split() for line in """\
sweep poisson --domain egg4 --xi e1 --z t,0 --grid-t=-1:1:5
sweep poisson --domain egg4 --xi e1 --z log(t),0.5*s --grid-t=-0.95:0.95:9 --grid-s=-1:1:5""".splitlines()]
    # The horofunction ladder's error path at an off-axis egg4 xi, where
    # a sandwiched rung pair fails: eval exits 3, each sweep row is an error.
    + [line.split() for line in """\
eval horofunction --domain egg4 --xi 0.6,0.8944271909999159 --p 0.1,0 --z 0.2,0.1j
sweep horofunction --domain egg4 --xi 0.6,0.8944271909999159 --p 0.1,0 --z 0.2*t,0.1j --grid-t=0:1:3""".splitlines()]
    # The stacked exact distances of the other kinds: egg4 rows on the
    # axis and catalogue routes, the sandwich and outside the domain, the
    # half-plane, the annulus (where every Green row is outside) and an
    # ellipsoid in C^3 with an axis point.
    + [line.split() for line in """\
sweep distance --domain egg4 --w 0.3,0.4*s --z 1.1*t,0.2 --grid-t=-1:1:7 --grid-s=-1:1:3
sweep distance --domain half_plane --w -0.5+0.2j --z -1.2+t+j*s --grid-t=-1:1:9 --grid-s=-1:1:5
sweep green --domain half_plane --w -0.5 --z -1.2+t+j*s --grid-t=-1:1:5 --grid-s=-1:1:3
sweep distance --domain annulus --r 0.5 --w 0.7 --z 0.75*cos(t)+0.75*j*sin(t) --grid-t=0:6:9
sweep green --domain annulus --r 0.5 --w 0.7 --z 0.75*cos(t)+0.75*j*sin(t) --grid-t=0:6:3
sweep distance --domain ellipsoid --m 4,4 --w 0.1,0,0 --z 0.5*t,0.3*s,0.2j --grid-t=-1:1:7 --grid-s=-1:1:3""".splitlines()]
    # Kernels at an off-axis xi: on egg4 a z0-axis z takes the Green
    # derivative and an off-axis z has no certified kernel (exit 3); egg2,
    # the unit ball, takes the ball's closed form at every z.
    + [line.split() for line in """\
eval poisson --domain egg4 --xi 0.6,0.8944271909999159 --z 0.3,0
eval poisson --domain egg4 --xi 0.6,0.8944271909999159 --z 0.1,0.1
eval poisson --domain egg2 --xi 0.6,0.8 --z 0.1,0.1""".splitlines()]
    # Template components evaluated column by column: an s-only component
    # that fails on some rows, two components that fail on different rows,
    # a constant component on a 1-D grid, a constant template that fails
    # on every row, and a 2-D sweep with failing rows written as JSON.
    + [line.split() for line in """\
sweep poisson --domain egg4 --xi e1 --z 0.5*t,log(s) --grid-t=-0.9:0.9:5 --grid-s=-1:1:5
sweep poisson --domain egg4 --xi e1 --z log(t),log(s) --grid-t=-0.9:0.9:5 --grid-s=-1:1:5
sweep green --domain ball2 --w 0.1,0 --z 0.5*t,0.3j --grid-t=-0.9:0.9:7
sweep poisson --domain ball2 --xi e1 --z log(-1),0 --grid-t=0:1:3
sweep distance --domain ball2 --w 0.1,0 --z log(t),0.4*s --grid-t=-0.9:0.9:5 --grid-s=-1:1:3 --format json""".splitlines()]
    # Template subexpressions evaluated once per value of what they read:
    # t-only, s-only and constant subexpressions in one component with
    # failing rows; a negative base to a fractional power, which Python
    # makes complex; and two failing subexpressions in either order,
    # written as JSON.
    + [line.split() for line in """\
sweep poisson --domain egg4 --xi e1 --z 0.5*t+0.1*log(s),0.3*s*(cos(t)+j*sin(t))*exp(0.1) --grid-t=-0.9:0.9:7 --grid-s=-1:1:5
sweep green --domain ball2 --w 0.1,0 --z 0.5*(-1)**t,0.2*s --grid-t=0:1:5 --grid-s=-1:1:3
sweep poisson --domain egg4 --xi e1 --z (1.0/s)*log(t+1)*0.1,0.1*t+0.2*log(s+1) --grid-t=-1:1:5 --grid-s=-1:1:3 --format json""".splitlines()]
    # Coordinates so large that rho overflows to inf: refused as outside,
    # with only the configuration error on stderr.
    + [line.split() for line in """\
eval distance --domain ball2 --w 0.1,0 --z 1e200,0
eval distance --domain egg4 --w 0.1,0 --z 0.1,1e200
sweep distance --domain ball2 --w 0.1,0 --z 1e200*t,0 --grid-t=0:1:3""".splitlines()]
    # Sandwiched off-axis egg6 pairs through the slice march: rows at
    # t = +-1 lie within 1e-6 of the boundary, where the march's 64-step
    # cap ends the bisection, and a second grid holds pairs less than
    # 1e-6 apart near that boundary point.
    + [line.split() for line in """\
sweep distance --domain egg6 --w 0.1,0.5 --z 0.999999*t,0.01+0.2*j*s --grid-t=-1:1:5 --grid-s=-1:1:3
sweep distance --domain egg6 --w 0.9999993,0.01 --z 0.9999995-4e-7*t,0.01+2e-7*j*s --grid-t=0:1:3 --grid-s=-1:1:3""".splitlines()]
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(argv, src) -> str:
    """The snapshot line of `pluripot argv` run with the package under src."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "pluripot", *argv, "--out", str(out)],
                              env=env, cwd=tmp, capture_output=True)
        written = _digest(out.read_bytes()) if out.exists() else "-"
    return (f"{proc.returncode} {written} {_digest(proc.stdout)} {_digest(proc.stderr)}  "
            + " ".join(argv))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        sys.stderr.write(__doc__)
        return 2
    src = (pathlib.Path(args[0]).resolve() if args else ROOT) / "src"
    if not (src / "pluripot").is_dir():
        sys.stderr.write(f"no pluripot sources under {src}\n")
        return 2
    for command in COMMANDS:
        print(fingerprint(command, src), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
