"""Outside-in layer tracing of pluripot.

A Tracer rebinds public functions of pluripot's modules, at every
binding a caller uses (`kernels.poisson_kernel`, the name `run_suite`
that cli imported from `_suites`, ...), to wrappers that either record
a span or only count calls.  Nothing in the package changes on disk;
`detach` puts the original objects back.

A span is (name, parent span id, start, end).  Spans stay in memory
until `collect`, which turns them into per-name call counts, self
times (duration minus the time covered by child spans) and route
counters.  Hot leaves are counted, not timed: a counting wrapper does
no clock reads and no span bookkeeping, and its cost lands in the self
time of the nearest enclosing timed span.
"""

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, route): timed as spans.  `route`, when set, names
# the attribute of the returned object that splits the call count.
TIMED = (
    ("domain_core", "boundary_project", None),
    ("domain_core", "minkowski_gauge", None),
    ("kernels", "poisson_kernel", "method"),
    ("kernels", "green_function", None),
    ("kernels", "horofunction", None),
    ("kernels", "green_normal_derivative", None),
    ("geodesics_metrics", "kobayashi_distance", "exact"),
    ("geodesics_metrics", "caratheodory_lower_bound", None),
    ("geodesics_metrics", "slice_upper_bound", None),
    ("pluripotential_verify", "complex_hessian", None),
    ("boundary_measure", "build_quadrature", None),
    ("boundary_measure", "reproduce_pluriharmonic", None),
    ("dilation_jwc", "dilation", None),
    ("dilation_jwc", "julia_checks", None),
    ("hyperbolic_models", "annulus_horofunction", None),
    ("cli", "main", None),
    ("_suites", "run_suite", None),
)

# (module, attribute): call counts only.
COUNTED = (
    ("domain_core", "defining_function"),
    ("domain_core", "brentq"),
    ("geodesics_metrics", "egg_invert"),
)

# kobayashi_distance returns a DistanceBound whose `exact` flag is the route.
_ROUTE_NAMES = {True: "exact", False: "sandwich"}

HESSIAN = "pluripotential_verify.complex_hessian"
KERNEL = "kernels.poisson_kernel"


class Tracer:
    """Span recorder for one traced round at a time."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._saved = []

    def attach(self):
        """Rebind every pluripot binding of the traced functions."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pluripot" or name.startswith("pluripot."))]
        wrappers = {}
        for mod, attr, route in TIMED:
            fn = getattr(sys.modules["pluripot." + mod], attr)
            wrappers[id(fn)] = (fn, self._timed(f"{mod}.{attr}", fn, route))
        for mod, attr in COUNTED:
            fn = getattr(sys.modules["pluripot." + mod], attr)
            wrappers[id(fn)] = (fn, self._counted(f"{mod}.{attr}", fn))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def detach(self):
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def __enter__(self):
        self.attach()
        return self

    def __exit__(self, *exc):
        self.detach()
        return False

    def _timed(self, name, fn, route):
        spans, stack, counts = self.spans, self.stack, self.counts
        if name == "_suites.run_suite":
            def label(args, kwargs):
                return f"{name}.{args[0] if args else kwargs.get('name')}"
        else:
            def label(args, kwargs):
                return name

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (label(args, kwargs), parent, start, end)
            if route is not None:
                key = getattr(out, route)
                counts[f"{name}.calls.{_ROUTE_NAMES.get(key, key)}"] += 1
            return out

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def collect(self):
        """Fold the recorded spans into totals and clear them.

        Returns (calls, self_s, total_s, counts, kernels_in_hessians,
        top_level_s): per-name span counts, self seconds and inclusive
        seconds, the counters, the number of poisson_kernel spans with a
        complex_hessian ancestor, and the inclusive seconds of root spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
        top_level = 0.0
        nested_kernels = 0
        for sid, (name, parent, start, end) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            total_s[name] += dur
            self_s[name] += dur - child[sid]
            if parent < 0:
                top_level += dur
            if name == KERNEL:
                p = parent
                while p >= 0 and spans[p][0] != HESSIAN:
                    p = spans[p][1]
                nested_kernels += p >= 0
        counts = Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return calls, self_s, total_s, counts, nested_kernels, top_level
