"""Correctness gate: oracles computed here, never by pluripot.

Every check returns the number of failed operations, so a miss is
counted against what was attempted.  `self_test` feeds the gate a
perturbed sweep row and a bundle with a failing verdict and reports
whether each was caught.
"""

import csv
import io
import json
import math

SWEEP_RTOL = 1e-9
BOUND_SLACK = 1e-9
# Ceiling on the median sandwich width / value of a run's off-catalogue
# pairs (about 0.65 at the first baseline).  A speed-up bought with
# looser distance bounds trips the gate instead of passing as a gain.
REL_WIDTH_CEILING = 0.8


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------

def egg4_poisson_e1(z0, z1):
    """Omega_{e1}(z) on egg4 = {|z0|^2 + |z1|^4 < 1}."""
    return -(1.0 - abs(z0) ** 2 - abs(z1) ** 4) / abs(1.0 - z0) ** 2


def egg4_inside(z0, z1):
    return abs(z0) ** 2 + abs(z1) ** 4 - 1.0 < 0.0


def ball_rho(z, w):
    """Pseudo-hyperbolic distance of the unit ball: rho^2 = 1 - (1-|z|^2)(1-|w|^2)/|1-<z,w>|^2."""
    zz = sum(abs(c) ** 2 for c in z)
    ww = sum(abs(c) ** 2 for c in w)
    zw = sum(a * b.conjugate() for a, b in zip(z, w))
    return math.sqrt(max(0.0, 1.0 - (1.0 - zz) * (1.0 - ww) / abs(1.0 - zw) ** 2))


def ball_green(z, w):
    """G_w(z) = log rho(z, w) on the unit ball."""
    return math.log(ball_rho(z, w))


def ball_distance(z, w):
    """Doubled Kobayashi distance of the unit ball, log((1+rho)/(1-rho))."""
    r = ball_rho(z, w)
    return math.log1p(r) - math.log1p(-r)


def log_tanh_half(k):
    """Green value log tanh(k/2) of a doubled distance k > 0."""
    return math.log(math.tanh(0.5 * k))


# ---------------------------------------------------------------------------
# Sweep: one operation per CSV row.
# ---------------------------------------------------------------------------

def poisson_template(c):
    """z(t, s) of the egg4 Poisson sweep, as a CLI template and as Python."""
    text = f"t,{c!r}*s*(cos(t)+j*sin(t))"
    return text, lambda t, s: (complex(t), c * s * (math.cos(t) + 1j * math.sin(t)))


def green_template():
    """z(t, s) of the ball2 Green sweep, as a CLI template and as Python."""
    return "0.9*t,0.4*s", lambda t, s: (complex(0.9 * t), complex(0.4 * s))


def check_sweep(text, expected_rows, point, inside, oracle):
    """Failed rows of a sweep CSV against an oracle.

    point(t, s) -> z; inside(z) decides the expected status; oracle(z)
    the expected value.  Each row's status must match inside(z), so
    the count of ok rows equals the in-domain count; every row missing
    from (or extra to) expected_rows counts as failed.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    failed = abs(expected_rows - len(rows))
    for row in rows:
        try:
            z = point(float(row["t"]), float(row["s"]))
            want_ok = inside(z)
            if row["status"] != ("ok" if want_ok else "outside"):
                failed += 1
            elif want_ok:
                got, want = float(row["value"]), oracle(z)
                if not (math.isfinite(got) and abs(got - want) <= SWEEP_RTOL * abs(want)):
                    failed += 1
        except (KeyError, ValueError, TypeError, ZeroDivisionError):
            failed += 1
    return failed


# ---------------------------------------------------------------------------
# Verify: one operation per suite run.
# ---------------------------------------------------------------------------

def check_bundle(rc, text, suite):
    """1 if a verify run failed: nonzero exit, wrong suite, no reports or any non-pass."""
    try:
        bundle = json.loads(text)
        reports = bundle["reports"]
        ok = (rc == 0 and bundle["suite"] == suite and reports
              and all(r["verdict"] == "pass" for r in reports))
    except (ValueError, KeyError, TypeError):
        ok = False
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Off-catalogue distances.
# ---------------------------------------------------------------------------

def check_pair(bound, green):
    """1 unless lower <= upper are finite and G lies in the bound's Green interval."""
    lo, hi, val = bound.lower, bound.upper, bound.value
    if not all(math.isfinite(x) for x in (lo, hi, val, green.value, green.uncertainty)):
        return 1
    if not (0.0 < lo <= val <= hi):
        return 1
    g_lo, g_hi = log_tanh_half(lo), log_tanh_half(hi)
    slack = BOUND_SLACK * (1.0 + abs(g_lo))
    return 0 if g_lo - slack <= green.value <= g_hi + slack else 1


def check_sandwich(lower, exact, upper):
    """1 unless lower <= exact <= upper (to 1e-9) for a pair with a known distance."""
    ok = all(math.isfinite(x) for x in (lower, upper)) and \
        lower <= exact + BOUND_SLACK and exact <= upper + BOUND_SLACK
    return 0 if ok else 1


def check_kernel(kv, oracle=None):
    """1 unless a returned kernel value is finite, negative and, with an oracle, honest."""
    if not (math.isfinite(kv.value) and math.isfinite(kv.uncertainty) and kv.value < 0.0):
        return 1
    if oracle is not None and abs(kv.value - oracle) > kv.uncertainty + SWEEP_RTOL * abs(oracle):
        return 1
    return 0


# ---------------------------------------------------------------------------
# Self-test: the gate must be able to fail.
# ---------------------------------------------------------------------------

def _fmt(x):
    return format(x, ".17g")


def self_test():
    """(perturbed sweep row caught, failing verdict caught, clean inputs pass)."""
    _, point = poisson_template(0.6)
    inside = lambda z: egg4_inside(*z)
    oracle = lambda z: egg4_poisson_e1(*z)
    grid = [(-0.9 + 0.45 * i, -1.0 + 0.5 * k) for i in range(5) for k in range(5)]
    lines = ["t,s,value,method,uncertainty,status"]
    for t, s in grid:
        z = point(t, s)
        if inside(z):
            lines.append(f"{_fmt(t)},{_fmt(s)},{_fmt(oracle(z))},closed_form,0,ok")
        else:
            lines.append(f"{_fmt(t)},{_fmt(s)},NaN,,NaN,outside")
    clean = "\n".join(lines) + "\n"
    target = next(i for i, line in enumerate(lines) if line.endswith(",ok"))
    cells = lines[target].split(",")
    cells[2] = _fmt(float(cells[2]) * (1.0 + 1e-6))
    bad_lines = list(lines)
    bad_lines[target] = ",".join(cells)
    perturbed = "\n".join(bad_lines) + "\n"

    good_bundle = {"schema": 1, "suite": "annulus",
                   "reports": [{"check": "a", "verdict": "pass"},
                               {"check": "b", "verdict": "pass"}]}
    bad_bundle = dict(good_bundle, reports=[{"check": "a", "verdict": "pass"},
                                            {"check": "b", "verdict": "fail"}])

    row_caught = check_sweep(perturbed, len(grid), point, inside, oracle) == 1
    verdict_caught = check_bundle(0, json.dumps(bad_bundle), "annulus") == 1
    clean_pass = (check_sweep(clean, len(grid), point, inside, oracle) == 0
                  and check_bundle(0, json.dumps(good_bundle), "annulus") == 0)
    return row_caught, verdict_caught, clean_pass

