"""pluripot benchmark: verify, sweep and offcatalogue workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Each workload is one closed-loop caller in this process, with no pool
and PLURIPOT_THREADS left unset.  Its inputs are made from --seed.  A
run repeats rounds of the same requests until --seconds are used up,
checks every output against oracles in gate.py, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 follows each
round with the same round traced by spans.py and reports the
per-layer metrics (per round) and the tracing overhead.  A tripped
gate exits 1 after printing the result; a checkout without pluripot
sources exits 2 without one.  README.md describes the workloads,
metrics and predictions.
"""

import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import numpy as np

import fixtures
import gate
import spans
from yardstick import (LAUNCH_SECONDS, PROBE_SECONDS, REFERENCE_PROBES, Sampler, reference,
                       scaled)

HERE = pathlib.Path(__file__).resolve().parent
SUITES = ("poisson_horofunction", "main2_estimate", "monge_ampere", "reproducing",
          "dilation", "annulus", "asymptoticity", "phragmen_lindelof")
SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
GRID = 60
OFFCAT_PAIRS = 100     # per round, so p90 has at least 10 samples beyond it
EGG2_PAIRS = 3         # sandwich-path oracle pairs per round
MIN_ROUNDS = 2


class Outcome:
    """One executed request: when its call into pluripot started, the
    seconds it took, and its gate result."""

    def __init__(self, start, seconds, attempted=1, failed=0, refused=0, width=None):
        self.start, self.seconds, self.attempted = start, seconds, attempted
        self.failed, self.refused, self.width = failed, refused, width


class Request:
    """A repeatable unit of work.  Requests with the same `op` add up to
    one user-visible operation; op None is work outside the latency
    percentiles.  `units` is the work it counts toward work_per_s."""

    def __init__(self, key, op, units, thunk):
        self.key, self.op, self.units, self.thunk = key, op, units, thunk


def timed(fn, *args):
    """(what fn(*args) returned or raised, its start time, its seconds)."""
    t0 = perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:
        value = exc
    return value, t0, perf_counter() - t0


def crashed(exc, t0, dt):
    traceback.print_exception(exc)
    return Outcome(t0, dt, failed=1)


def call_cli(pp, argv):
    """(exit code, start, seconds) of pluripot.cli.main(argv) with its
    stderr captured; the exit code is None if main raised."""
    with contextlib.redirect_stderr(io.StringIO()):
        rc, t0, dt = timed(pp.cli.main, argv)
    if isinstance(rc, Exception):
        traceback.print_exception(rc)
        rc = None
    return rc, t0, dt


def interior_point(pp, dom, rng, lo=0.15, hi=0.7):
    """Gaussian direction scaled by the public gauge to a random gauge in [lo, hi)."""
    raw = rng.standard_normal(2 * dom.n)
    v = raw[:dom.n] + 1j * raw[dom.n:]
    return v / pp.minkowski_gauge(dom, v) * rng.uniform(lo, hi)


# ---------------------------------------------------------------------------
# Workloads.  requests(warmup) lists the work of one round.
# ---------------------------------------------------------------------------

class Verify:
    """All eight suites through `pluripot verify <suite> --seed <seed> --out <file>`."""

    def __init__(self, pp, fx, seed, tmp):
        self.pp, self.seed, self.out = pp, seed, tmp / "verify.json"

    def requests(self, warmup=False):
        suites = [s for s in SUITES if s != "monge_ampere"] if warmup else SUITES
        return [Request(suite, "pass", 1, lambda suite=suite: self._run(suite))
                for suite in suites]

    def _run(self, suite):
        self.out.unlink(missing_ok=True)
        rc, t0, dt = call_cli(self.pp, ["verify", suite, "--seed", str(self.seed),
                                        "--out", str(self.out)])
        text = self.out.read_text() if self.out.exists() else ""
        return Outcome(t0, dt, failed=gate.check_bundle(rc, text, suite))


class Sweep:
    """Two 2-D CLI sweeps: egg4 Poisson kernel at e1 and ball2 Green function."""

    def __init__(self, pp, fx, seed, tmp):
        rng = np.random.default_rng(seed)
        self.pp, self.out = pp, tmp / "sweep.csv"
        c = float(0.5 + 0.2 * rng.random())
        w = (complex(float(rng.uniform(-0.3, 0.3))),
             1j * float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.2)))
        p_text, p_point = gate.poisson_template(c)
        g_text, g_point = gate.green_template()
        # Grids and --w use the --flag=value form: argparse rejects a
        # separate argument that starts with a minus sign.
        self.grids = (
            ("poisson", ["sweep", "poisson", "--domain", "egg4", "--xi", "e1", "--z", p_text],
             p_point, lambda z: gate.egg4_inside(*z), lambda z: gate.egg4_poisson_e1(*z)),
            ("green", ["sweep", "green", "--domain", "ball2",
                       f"--w={w[0].real!r},{w[1].imag!r}j", "--z", g_text],
             g_point, lambda z: sum(abs(x) ** 2 for x in z) < 1.0,
             lambda z: gate.ball_green(z, w)),
        )

    def requests(self, warmup=False):
        n = 6 if warmup else GRID
        return [Request(grid[0], "pass", n * n, lambda grid=grid: self._run(n, *grid[1:]))
                for grid in self.grids]

    def _run(self, n, argv, point, inside, oracle):
        self.out.unlink(missing_ok=True)
        rc, t0, dt = call_cli(self.pp, argv + [f"--grid-t=-0.95:0.95:{n}", f"--grid-s=-1:1:{n}",
                                               "--out", str(self.out)])
        text = self.out.read_text() if self.out.exists() else ""
        failed = n * n if rc != 0 else gate.check_sweep(text, n * n, point, inside, oracle)
        return Outcome(t0, dt, attempted=n * n, failed=failed)


class Offcatalogue:
    """Random off-axis egg4 pairs through kobayashi_distance and green_function."""

    def __init__(self, pp, fx, seed, tmp):
        self.pp, self.fx, self.rng = pp, fx, np.random.default_rng(seed)
        # The two ROADMAP kernel cases that end in ConvergenceError today;
        # the general convex egg4 at e1 has the egg4 closed form as oracle.
        z_gc = np.array([0.3, 0.1j])
        self.kernel_cases = (
            (fx["egg4"], fx["egg4.off_axis"], np.array([0.1, 0.1], dtype=complex), None),
            (fx["gc_egg4"], fx["gc_egg4.e1"], z_gc, gate.egg4_poisson_e1(*z_gc)),
        )

    def _pairs(self, dom, count):
        return [(interior_point(self.pp, dom, self.rng), interior_point(self.pp, dom, self.rng))
                for _ in range(count)]

    def requests(self, warmup=False):
        egg2, egg4 = self.fx["egg2"], self.fx["egg4"]
        out = []
        if not warmup:
            out += [Request(f"kernel{i}", None, 0, lambda case=case: self._kernel(*case))
                    for i, case in enumerate(self.kernel_cases)]
        out += [Request(f"egg2.{i}", None, 0, lambda z=z, w=w: self._sandwich(egg2, z, w))
                for i, (z, w) in enumerate(self._pairs(egg2, 1 if warmup else EGG2_PAIRS))]
        out += [Request(f"pair{i}", i, 1, lambda z=z, w=w: self._pair(egg4, z, w))
                for i, (z, w) in enumerate(self._pairs(egg4, 2 if warmup else OFFCAT_PAIRS))]
        return out

    def _kernel(self, dom, xi, z, oracle):
        kv, t0, dt = timed(self.pp.poisson_kernel, dom, xi, z)
        if isinstance(kv, self.pp.ConvergenceError):
            return Outcome(t0, dt, refused=1)
        if isinstance(kv, Exception):
            return crashed(kv, t0, dt)
        return Outcome(t0, dt, failed=gate.check_kernel(kv, oracle))

    def _sandwich(self, dom, z, w):
        pp = self.pp
        bounds, t0, dt = timed(lambda: (pp.caratheodory_lower_bound(dom, z, w),
                                        pp.slice_upper_bound(dom, z, w)))
        if isinstance(bounds, Exception):
            return crashed(bounds, t0, dt)
        lower, upper = bounds
        return Outcome(t0, dt, failed=gate.check_sandwich(lower, gate.ball_distance(z, w), upper))

    def _pair(self, dom, z, w):
        pp = self.pp
        both, t0, dt = timed(lambda: (pp.kobayashi_distance(dom, z, w),
                                      pp.green_function(dom, w, z)))
        if isinstance(both, Exception):
            return crashed(both, t0, dt)
        bound, green = both
        return Outcome(t0, dt, failed=gate.check_pair(bound, green),
                       width=bound.width / bound.value)


WORKLOADS = {"verify": Verify, "sweep": Sweep, "offcatalogue": Offcatalogue}


# ---------------------------------------------------------------------------
# Set-up time, measured in fresh interpreters.
# ---------------------------------------------------------------------------

def _launch(script, args, tmp, importtime=False):
    """(seconds from launch to "ready", its -X importtime log) of one
    run of `script` in a fresh interpreter."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + \
        [str(HERE / script)] + args
    log = tmp / "importtime.log"
    with open(log, "w") as err:
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                              cwd=str(fixtures.ROOT)) as proc:
            line = proc.stdout.readline()
            ready = perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"{script} exited {rc}: {log.read_text()[-2000:]}")
    return ready, log.read_text() if importtime else ""


def setup_seconds(workload, tmp):
    """Median over SETUP_LAUNCHES set-up probes of launch-to-ready
    seconds, each scaled by the mean of the reference launches just
    before and just after it, after one warm-up launch of each."""
    def set_up():
        return _launch("fixtures.py", [workload], tmp)[0]

    def reference_launch():
        return _launch("yardstick.py", [], tmp)[0]

    set_up()
    refs, times = [reference_launch()], []
    for _ in range(SETUP_LAUNCHES):
        times.append(set_up())
        refs.append(reference_launch())
    return statistics.median(t * 2.0 * LAUNCH_SECONDS / (before + after)
                             for t, before, after in zip(times, refs, refs[1:]))


def import_seconds(workload, tmp):
    """Median (scipy, pluripot self) import seconds from -X importtime."""
    _launch("fixtures.py", [workload], tmp, True)
    scipy_s, own_s = [], []
    for _ in range(IMPORTTIME_LAUNCHES):
        sums = {"scipy": 0.0, "pluripot": 0.0}
        for line in _launch("fixtures.py", [workload], tmp, True)[1].splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                self_us = int(parts[0].split(":")[1])
            except ValueError:
                continue
            top = parts[2].strip().split(".")[0]
            if top in sums:
                sums[top] += self_us * 1e-6
        scipy_s.append(sums["scipy"])
        own_s.append(sums["pluripot"])
    return statistics.median(scipy_s), statistics.median(own_s)


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------

class Rounds:
    """What a run measured: the scaled seconds of every untraced request
    execution by request key, every outcome, the folded spans of traced
    rounds, the seconds spent inside pluripot per round, and the probe()
    seconds of every reference() sample."""

    def __init__(self):
        self.times, self.outcomes, self.folds = {}, [], []
        self.walls, self.traced_walls, self.refs = [], [], []

    def medians(self):
        return {key: statistics.median(ts) for key, ts in self.times.items()}


def _round(requests, res, times, sampler=None):
    """Run every request once, each between two reference() samples and,
    with a sampler, sampled while it runs; returns the seconds spent
    inside pluripot, less the sampler's own.  A request's time is scaled
    by its samples from inside if it has REFERENCE_PROBES of them, else
    by those and the reference() samples on both sides."""
    inside = 0.0
    before = reference()
    res.refs += before
    for req in requests:
        if sampler is None:
            out, during, spent = req.thunk(), [], 0.0
        else:
            with sampler:
                out = req.thunk()
            during, spent = sampler.within(out.start, out.seconds)
        seconds = out.seconds - spent
        after = reference()
        res.refs += after
        res.outcomes.append(out)
        probes = during if len(during) >= REFERENCE_PROBES else before + during + after
        times.setdefault(req.key, []).append(scaled(seconds, probes))
        inside += seconds
        before = after
    return inside


def measure(requests, seconds, tracer):
    """Repeat rounds of `requests` until the next would overrun `seconds`.

    Each request's latency is its median scaled time over the rounds,
    at least MIN_ROUNDS of them untraced.  With a tracer, every
    untraced round is followed by the same round traced, and one round
    is enough.
    """
    res, sampler = Rounds(), Sampler()
    min_rounds = 1 if tracer is not None else MIN_ROUNDS
    start = perf_counter()
    while True:
        res.walls.append(_round(requests, res, res.times, sampler))
        if tracer is not None:
            with tracer:
                res.traced_walls.append(_round(requests, res, {}))
            res.folds.append(tracer.collect())
        elapsed = perf_counter() - start
        if len(res.walls) >= min_rounds and elapsed * (1 + 1 / len(res.walls)) > seconds:
            return res


def percentile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def op_seconds(requests, med):
    """Seconds of each user-visible operation (its requests' medians summed)."""
    ops = {}
    for req in requests:
        if req.op is not None:
            ops[req.op] = ops.get(req.op, 0.0) + med[req.key]
    return list(ops.values())


def end_to_end(requests, res, setup_s):
    med = res.medians()
    op_s = op_seconds(requests, med)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_ms_p50": (1e3 * statistics.median(op_s), "ms"),
        "op_ms_p90": (1e3 * percentile(op_s, 0.9), "ms"),
        "work_per_s": (sum(r.units for r in requests) / sum(med.values()), "1/s"),
    }, len(op_s)


def per_layer(requests, res, import_s):
    """Layer metrics per traced round (one pass of the workload), in
    unscaled seconds: spans, and the seconds inside pluripot of traced
    and untraced rounds, whose difference is the tracing overhead."""
    n = len(res.folds)
    calls, self_s, total_s, counts = {}, {}, {}, {}
    nested = top_level = 0.0
    for c, s, t, k, nk, tl in res.folds:
        for src, dst in ((c, calls), (s, self_s), (t, total_s), (k, counts)):
            for key, val in src.items():
                dst[key] = dst.get(key, 0) + val
        nested += nk
        top_level += tl
    out = {}
    for mod, attr, route in spans.TIMED:
        name = f"{mod}.{attr}"
        if name == "_suites.run_suite":
            # Metric names start with a letter: `suites.run_suite.<suite>.s`.
            for suite in SUITES:
                out[f"suites.run_suite.{suite}.s"] = (total_s.get(f"{name}.{suite}", 0.0) / n, "s")
            continue
        if route is None or route == "method":
            out[name + ".calls"] = (calls.get(name, 0) / n, "count")
        if route == "method":
            for r in ("closed_form", "geodesic_formula", "limit_ladder"):
                out[f"{name}.calls.{r}"] = (counts.get(f"{name}.calls.{r}", 0) / n, "count")
        if route == "exact":
            for r in ("exact", "sandwich"):
                out[f"{name}.calls.{r}"] = (counts.get(f"{name}.calls.{r}", 0) / n, "count")
        out[name + ".self_s"] = (self_s.get(name, 0.0) / n, "s")
    for mod, attr in spans.COUNTED:
        out[f"{mod}.{attr}.calls"] = (counts.get(f"{mod}.{attr}.calls", 0) / n, "count")
    hessians = calls.get(spans.HESSIAN, 0)
    out["pluripotential_verify.kernel_calls_per_hessian"] = (
        nested / hessians if hessians else 0.0, "ratio")
    out["setup.import.scipy_s"] = (import_s[0], "s")
    out["setup.import.pluripot_self_s"] = (import_s[1], "s")
    out["offcat.rel_width_median"] = (rel_width_median(requests, res), "ratio")
    out["offcat.kernel_refused"] = (sum(o.refused for o in res.outcomes) / (2 * n), "count")
    traced, untraced = sum(res.traced_walls) / n, sum(res.walls) / n
    out["trace.wall_s"] = (traced, "s")
    out["trace.untraced_wall_s"] = (untraced, "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    out["trace.self_sum_s"] = (top_level / n, "s")
    return out, (calls, self_s, total_s, counts)


def rel_width_median(requests, res):
    """Median width / value of the distance bounds of the first round (0 if none)."""
    widths = [o.width for o in res.outcomes[:len(requests)] if o.width is not None]
    return statistics.median(widths) if widths else 0.0


def print_layer_table(n, calls, self_s, total_s, counts, stream):
    stream.write(f"{'span':<58}{'calls/pass':>12}{'self s/pass':>13}{'total s/pass':>14}\n")
    for name in sorted(calls, key=lambda k: -self_s[k]):
        stream.write(f"{name:<58}{calls[name] / n:>12.1f}{self_s[name] / n:>13.4f}"
                     f"{total_s[name] / n:>14.4f}\n")
    for name in sorted(counts):
        stream.write(f"{name:<58}{counts[name] / n:>12.1f}\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if "PLURIPOT_THREADS" in os.environ:
        ap.error("unset PLURIPOT_THREADS: every workload is one serial caller")
    try:
        pp = fixtures.import_pluripot()
    except ImportError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2

    tmp = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench-", dir=str(fixtures.ROOT)))
    try:
        if args.trace:
            import_s = import_seconds(args.workload, tmp)
        else:
            setup_s = setup_seconds(args.workload, tmp)
        fx = fixtures.build(pp, args.workload)
        workload = WORKLOADS[args.workload](pp, fx, args.seed, tmp)
        for req in workload.requests(warmup=True):
            req.thunk()
        requests = workload.requests()
        res = measure(requests, args.seconds, spans.Tracer() if args.trace else None)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(o.attempted for o in res.outcomes)
    failed = sum(o.failed for o in res.outcomes)
    refused = sum(o.refused for o in res.outcomes)
    row_caught, verdict_caught, clean_pass = gate.self_test()
    rel_width = rel_width_median(requests, res)
    correct = (failed == 0 and row_caught and verdict_caught and clean_pass
               and rel_width <= gate.REL_WIDTH_CEILING)

    err = sys.stderr
    err.write(f"workload {args.workload}  seed {args.seed}  rounds {len(res.walls)}  "
              f"attempted {attempted}  failed {failed}  refused {refused}\n")
    err.write(f"gate self-test: perturbed row caught {row_caught}, fail verdict caught "
              f"{verdict_caught}, clean inputs pass {clean_pass}\n")
    if rel_width:
        err.write(f"off-catalogue width/value median {rel_width:.4f} "
                  f"(ceiling {gate.REL_WIDTH_CEILING})\n")
    if args.trace:
        metrics, (calls, self_s, total_s, counts) = per_layer(requests, res, import_s)
        print_layer_table(len(res.folds), calls, self_s, total_s, counts, err)
        if any(f[5] > wall for f, wall in zip(res.folds, res.traced_walls)):
            err.write("span self times exceed the traced wall time\n")
            correct = False
    else:
        metrics, samples = end_to_end(requests, res, setup_s)
        raw = [o.seconds for o in res.outcomes]
        err.write(f"operations {samples}, each the median of {len(res.walls)} rounds; "
                  f"probe median {statistics.median(res.refs) * 1e6:.1f} us "
                  f"(nominal {PROBE_SECONDS * 1e6:g} us), unscaled request median "
                  f"{statistics.median(raw) * 1e3:.4f} ms\n")
    for name, (value, unit) in metrics.items():
        err.write(f"  {name:<52} {value:>16.6g} {unit}\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
