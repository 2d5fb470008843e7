"""The boundary-limit engine: inward normal ladders and Aitken extrapolation.

Every boundary limit in pluripot (kernel, horofunction, dilation, curve
and distance asymptotics) steps inward along a ladder and extrapolates
the values with `extrapolate`, so all of them share one acceptance rule.
"""

from __future__ import annotations

from .domain_core import Domain, boundary_point, defining_function
from .errors import ConvergenceError, DomainError


def aitken(values):
    """Accelerate a convergent sequence with one Aitken delta-squared step.

    Uses the last three entries.  Returns (estimate, uncertainty) where the
    uncertainty is the distance between the raw last entry and the
    accelerated value.  Falls back to the last entry when the denominator
    degenerates (sequence already flat).  Works for real or complex entries.
    """
    v = list(values)
    if len(v) < 3:
        est = v[-1]
        unc = abs(v[-1] - v[-2]) if len(v) == 2 else 0.0
        return est, float(unc)
    x0, x1, x2 = v[-3], v[-2], v[-1]
    d1 = x1 - x0
    d2 = x2 - x1
    den = d2 - d1
    if den == 0 or abs(den) < 1e-300:
        return x2, float(abs(d2))
    est = x2 - d2 * d2 / den
    return est, float(abs(x2 - est))


def normal_ladder(dom: Domain, xi, js):
    """Rungs xi - 10^-j n_xi for j in js, every one inside the domain.

    Raises DomainError when a rung leaves the domain, so a ladder never
    loses rungs silently.
    """
    bp = boundary_point(dom, xi)
    pts = []
    for j in js:
        w = bp.position - (10.0 ** (-j)) * bp.normal
        if not float(defining_function(dom, w)) < 0.0:
            raise DomainError("normal ladder left the domain; boundary too curved here")
        pts.append(w)
    return pts


def extrapolate(values, what):
    """Aitken limit of a ladder, as (estimate, uncertainty).

    Raises ConvergenceError naming `what` when the ladder has fewer than
    three rungs, when its last gap exceeds 10 times the one before (plus
    1e-7 of the value scale, so that rungs jittering at their roundoff
    floor do not count as divergence), or when the Aitken uncertainty
    exceeds 1e-4 (1 + |estimate|).  NaN values fail both tests.
    """
    v = list(values)
    if len(v) < 3:
        raise ConvergenceError(f"{what} ladder needs at least 3 rungs, got {len(v)}")
    g1 = abs(v[-2] - v[-3])
    g2 = abs(v[-1] - v[-2])
    if not g2 <= 10.0 * g1 + 1e-7 * (1.0 + max(abs(x) for x in v)):
        raise ConvergenceError(f"{what} ladder diverges")
    est, unc = aitken(v)
    if not unc <= 1e-4 * (1.0 + abs(est)):
        raise ConvergenceError(f"{what} ladder did not settle: uncertainty {unc:.3e}")
    return est, unc
