"""Command-line front end: evaluate, verify, and sweep.

eval   one quantity at given points -> CSV or JSON rows
verify a named suite -> JSON report bundle, exit 0 iff all checks pass
sweep  a quantity over a 1- or 2-parameter grid -> plot-ready CSV

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Numbers are serialized with 17 significant digits and fixed iteration
order, so identical configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import ast
import functools
import io
import itertools
import json
import math
import operator
import sys

import numpy as np

from . import boundary_measure, geodesics_metrics, kernels
from ._suites import SUITES, domain_from_config, run_suite
from .domain_core import BoundaryPoint, _inside_rows, boundary_point, require_interior
from .errors import ConvergenceError, DomainError, PluripotError, UnsupportedDomainError

_QUANTITIES = ("green", "poisson", "horofunction", "distance", "density")
_FORMATS = ("csv", "json")

# The add_argument options of every argument, by destination; a flag is
# --destination with dashes for underscores.
_ARGUMENTS = {
    "quantity": {"choices": _QUANTITIES},
    "suite": {"nargs": "?", "help": f"one of {sorted(SUITES)}"},
    "domain": {"help": "disc | ballN | eggM | ellipsoid | annulus | half_plane"},
    "r": {"type": float, "help": "annulus inner radius"},
    "m": {"help": "ellipsoid exponents, comma separated"},
    "xi": {"help": "boundary point, e.g. e1 or 1,0"},
    "z": {"help": "interior point"},
    "w": {"help": "interior point"},
    "p": {"help": "interior base point"},
    "grid_t": {"help": "t grid as start:stop:count"},
    "grid_s": {"help": "optional s grid as start:stop:count"},
    "tol": {"type": float, "help": "tolerance override"},
    "resolution": {"type": int, "help": "quadrature resolution (reproducing suite)"},
    "seed": {"type": int, "help": "sampling seed override"},
    "out": {"help": "output path (default stdout)"},
    "format": {"choices": _FORMATS, "help": "output format"},
    "config": {"help": "JSON config file; flags override its keys"},
}

# Each command's help, its positional argument and the flags it reads.
_DOMAIN = ("domain", "r", "m")
_POINT = ("xi", "z", "w", "p")
_COMMANDS = {
    "eval": ("evaluate one quantity", "quantity", _DOMAIN + _POINT + ("out", "format", "config")),
    "verify": ("run a named verification suite", "suite",
               _DOMAIN + ("tol", "resolution", "seed", "out", "config")),
    "sweep": ("sweep a quantity over a parameter grid", "quantity",
              _DOMAIN + _POINT + ("grid_t", "grid_s", "out", "format", "config")),
}


# ---------------------------------------------------------------------------
# Serialization: floats at 17 significant digits, deterministic layout.
# ---------------------------------------------------------------------------

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _fmt_float(x: float) -> str:
    text = format(float(x), ".17g")
    return _NONFINITE.get(text, text)


def _dumps(obj, indent=0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {_dumps(v, indent + 2)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{_dumps(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, complex):
        return json.dumps(_point_str(np.array([obj])))
    return json.dumps(str(obj))


def _point_str(pt) -> str:
    parts = []
    for c in np.atleast_1d(np.asarray(pt, dtype=complex)):
        parts.append(f"{_fmt_float(c.real)}{'+' if c.imag >= 0 else '-'}{_fmt_float(abs(c.imag))}j")
    return ";".join(parts)


def _float_texts(floats):
    """_fmt_float of each of a list of floats."""
    texts = list(map(format, floats, itertools.repeat(".17g")))
    return list(map(_NONFINITE.get, texts, texts))


def _distinct_texts(floats):
    """_float_texts(floats), each distinct bit pattern formatted once (0.0
    == -0.0, but they print as 0 and -0)."""
    bits = np.array(floats, dtype=float).view(np.int64).tolist()
    distinct = dict(zip(bits, floats))
    texts = dict(zip(distinct, _float_texts(list(distinct.values()))))
    return list(map(texts.__getitem__, bits))


def _write_csv(columns, out):
    """Write columns, a dict of header -> cells of equal length, as CSV: a
    float at 17 significant digits, anything else by str."""
    out.write(_table("csv", columns, ([_fmt_float(v) if isinstance(v, (float, np.floating)) else str(v)
                                       for v in row] for row in zip(*columns.values()))))


def _table(fmt, header, rows) -> str:
    """rows (at least one) of cell texts under header, as CSV or as the JSON
    of _dumps({"schema": 1, "rows": [a dict per row]}): then a row is a
    tuple, and a string cell's text is its JSON string."""
    if fmt == "json":
        row = "    {\n" + ",\n".join(f"      {json.dumps(key)}: %s" for key in header) + "\n    }"
        return '{\n  "schema": 1,\n  "rows": [\n' + ",\n".join(map(row.__mod__, rows)) + "\n  ]\n}\n"
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------

_TEMPLATE_FUNCS = {"cos": math.cos, "sin": math.sin, "tan": math.tan,
                   "exp": math.exp, "sqrt": math.sqrt, "log": math.log, "abs": abs}
_TEMPLATE_CONSTS = {"pi": math.pi, "j": 1j}
_TEMPLATE_ENV = dict(_TEMPLATE_FUNCS, **_TEMPLATE_CONSTS)
# Python's own operation of each operator a template may use.
_TEMPLATE_OPERATORS = {ast.UAdd: operator.pos, ast.USub: operator.neg, ast.Add: operator.add,
                       ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv,
                       ast.Pow: operator.pow}
_TEMPLATE_OPS = tuple(_TEMPLATE_OPERATORS)
# The errors of template arithmetic: each rules out the rows it falls on.
_TEMPLATE_ERRORS = (ArithmeticError, ValueError, TypeError)


def _disallowed(node, params):
    """First node of a template's tree outside the grammar, or None."""
    if isinstance(node, ast.Expression):
        return _disallowed(node.body, params)
    if isinstance(node, ast.Constant):
        return None if type(node.value) in (int, float, complex) else node
    if isinstance(node, ast.Name):
        return None if node.id in _TEMPLATE_CONSTS or node.id in params else node
    if isinstance(node, ast.Call):
        if (isinstance(node.func, ast.Name) and node.func.id in _TEMPLATE_FUNCS
                and len(node.args) == 1 and not node.keywords):
            return _disallowed(node.args[0], params)
        return node
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _TEMPLATE_OPS):
        return _disallowed(node.operand, params)
    if isinstance(node, ast.BinOp) and isinstance(node.op, _TEMPLATE_OPS):
        return _disallowed(node.left, params) or _disallowed(node.right, params)
    return node


def _template_steps(node, params, steps, constants):
    """Append to steps the evaluation of a checked tree node: its operands'
    steps, then (arity, (fast, safe, swap)) for an operation, or (0,
    index) for a leaf, indexing params followed by constants, to which a
    constant goes as a 0-d object array.  fast is the operation as a
    ufunc of object arrays, safe that of _template_cell.  Integer
    constants become floats.

    Returns how many computed columns the steps hold at once.  Of two
    operands, the one that needs more goes first (then swap is true; the
    Sethi-Ullman order), so a nested template holds a few columns at a
    time, not one per level.
    """
    if isinstance(node, ast.Name) and node.id in params:
        steps.append((0, params.index(node.id)))
        return 0
    if isinstance(node, (ast.Constant, ast.Name)):
        value = node.value if isinstance(node, ast.Constant) else _TEMPLATE_ENV[node.id]
        steps.append((0, len(params) + len(constants)))
        constants.append(np.array(float(value) if type(value) is int else value, dtype=object))
        return 0
    operation = _TEMPLATE_ENV[node.func.id] if isinstance(node, ast.Call) else _TEMPLATE_OPERATORS[type(node.op)]
    operands = (node.args if isinstance(node, ast.Call) else [node.operand] if isinstance(node, ast.UnaryOp)
                else [node.left, node.right])
    parts = [[] for _ in operands]
    needs = [_template_steps(operand, params, part, constants) for operand, part in zip(operands, parts)]
    swap = needs[-1] > needs[0]
    for part in reversed(parts) if swap else parts:
        steps.extend(part)
    steps.append((len(operands), (np.frompyfunc(operation, len(operands), 1),
                                  np.frompyfunc(functools.partial(_template_cell, operation), len(operands), 1),
                                  swap)))
    # The first operand's column waits while the second's steps run.
    return max(1, max(needs) if len(needs) == 1 else max(max(needs), min(needs) + 1))


def _template_cell(operation, *operands):
    """operation of one element's operands by Python's arithmetic: the first
    operand that is an exception, else the value or the exception raised."""
    for operand in operands:
        if isinstance(operand, Exception):
            return operand
    try:
        return operation(*operands)
    except _TEMPLATE_ERRORS as exc:
        return _detached(exc)


def _template_column(steps, constants, grids):
    """A template component over the grid, from its steps (_template_steps)
    and the object array of each grid parameter along its own axis.

    Each operation runs over the product of the parameters its operands
    read alone, by Python's own scalar arithmetic on each element.
    Returns an object array with one axis per parameter, of length 1
    where the component does not read it, whose elements are values or
    the exception that Python's evaluation raises first; and whether any
    element is an exception.  An operation that raises on some element,
    or has such an operand, runs element by element (safe).
    """
    leaves, stack = (*grids, *constants), []
    # Python's float arithmetic sets the floating-point flags (inf * 0),
    # which numpy would report as warnings.
    with np.errstate(all="ignore"):
        for arity, item in steps:
            if not arity:
                stack.append((leaves[item], False))
                continue
            fast, safe, swap = item
            operands, failed = zip(*(stack[:-arity - 1:-1] if swap else stack[-arity:]))
            del stack[-arity:]
            failed = any(failed)
            if not failed:
                try:
                    column = fast(*operands)
                except _TEMPLATE_ERRORS:
                    failed = True
            if failed:
                column = safe(*operands)
            stack.append((np.asarray(column, dtype=object), failed))
    return stack[0]


@functools.lru_cache(maxsize=64)
def _template(text, params):
    """Each component of a comma-separated sweep template as (function,
    the params it reads, in params order); function(grids) is
    _template_column of the component.

    A component such as '0.9*t' or 'cos(t)+j*s' may hold only numeric
    constants, the grid parameters, j and pi, the operators + - * / **
    and unary minus and plus, and one-argument calls of _TEMPLATE_FUNCS;
    anything else raises DomainError.  No code is generated from the
    text: its checked tree is evaluated node by node, on numbers and
    these functions alone.  Integer constants become floats, so a power
    such as 9**9**9 raises OverflowError at once instead of building a
    huge integer; an integer constant too large for a float raises
    DomainError.
    """
    components = []
    # The parser raises MemoryError, and the checks and _template_steps
    # RecursionError, on too deeply nested arithmetic.
    try:
        for tok in (part.strip() for part in text.split(",")):
            comp = ast.parse(tok, mode="eval")
            bad = _disallowed(comp, params)
            if bad is not None:
                raise DomainError(f"component {tok!r} may not contain {ast.unparse(bad) or type(bad).__name__!r}")
            steps, constants = [], []
            _template_steps(comp.body, params, steps, constants)
            names = {node.id for node in ast.walk(comp) if isinstance(node, ast.Name)}
            components.append((functools.partial(_template_column, steps, tuple(constants)),
                               tuple(param for param in params if param in names)))
    except (SyntaxError, ValueError, RecursionError, OverflowError, MemoryError) as exc:
        raise DomainError(f"cannot parse component {tok!r}: {exc}")
    return components


def _parse_point(text, n):
    """Parse a comma-separated complex vector, e.g. '0.5,0' or 'e1'."""
    text = text.strip()
    if text.startswith("e") and text[1:].isdecimal():
        try:
            k = int(text[1:])
        except ValueError:  # more digits than int() reads
            k = 0
        if k < 1 or k > n:
            raise DomainError(f"unit vector {text!r} out of range for dimension {n}")
        v = np.zeros(n, dtype=complex)
        v[k - 1] = 1.0
        return v
    comps = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            comps.append(complex(tok))
        except ValueError:
            raise DomainError(f"cannot parse component {tok!r} as a complex number")
    return np.array(comps, dtype=complex)


class _Rows:
    """A point that changes from row to row: its stack (k, n), and the
    error of each row (by index) whose template arithmetic failed."""

    def __init__(self, stack, errors):
        self.stack, self.errors = stack, errors


def _template_rows(text, n, axes):
    """The sweep template text at each row of the grid itertools.product(*axes.values()).

    Each component is evaluated over the values of the parameters that
    each of its subexpressions reads (_template_column), then broadcast
    along the grid.  A template with other than n components raises the
    DomainError that eval gives a point of another dimension.  A row
    where a component fails gets NaN in every component, and the
    DomainError of the first component that fails on it.
    """
    components = _template(text, tuple(axes))
    if len(components) != n:
        raise DomainError(f"expected a point of C^{n}, got shape {(len(components),)}")
    shape = [len(axis) for axis in axes.values()]
    grids = [np.array(axis, dtype=object).reshape([-1 if other == param else 1 for other in axes])
             for param, axis in axes.items()]
    stack, errors = np.empty((math.prod(shape), n), dtype=complex), {}
    for i, (function, _) in enumerate(components):
        column, failed = function(grids)
        if failed:
            cells = np.broadcast_to(column, shape).flatten()
            rows = np.flatnonzero([isinstance(cell, Exception) for cell in cells.tolist()])
            raised = cells[rows].tolist()
            found = {exc: DomainError(f"cannot evaluate {text!r}: {exc}") for exc in set(raised)}
            for row, exc in zip(rows.tolist(), raised):
                errors.setdefault(row, found[exc])  # the error of an earlier component stays
            cells[rows] = math.nan
            column = cells.reshape(shape)
        stack.reshape(*shape, n)[..., i] = column.astype(complex)
    stack[list(errors)] = math.nan
    return _Rows(stack, errors)


def _sweep_point(dom, key, text, axes):
    """A sweep's point: computed once if it uses no grid parameter, else a _Rows.

    A fixed xi becomes its BoundaryPoint when it is one; otherwise each
    row hands it to the quantity's function, which reports what it
    finds.  A template whose arithmetic fails is a _Rows: each row reports it.
    """
    text = text.strip()
    if text.startswith("e") and text[1:].isdecimal():
        pt = _parse_point(text, dom.n)
    else:
        rows = _template_rows(text, dom.n, axes)
        if rows.errors or any(reads for _, reads in _template(text, tuple(axes))):
            return rows
        pt = rows.stack[0]
    if key == "xi":
        try:
            return boundary_point(dom, pt)
        except DomainError:
            pass
    return pt


# The most rows a sweep may have (README gives the memory per row).
_MAX_GRID_ROWS = 10 ** 6


def _parse_grid(text, rows=1):
    """start:stop:count -> linspace, as the axis of a grid of rows * count rows."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid spec must be start:stop:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"cannot parse grid spec {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"grid ends must be finite, got {text!r}")
    if not math.isfinite(hi - lo):
        raise DomainError(f"grid span must be finite, got {text!r}")
    if count < 1:
        raise DomainError("grid count must be positive")
    if rows * count > _MAX_GRID_ROWS:
        raise DomainError(f"a sweep grid may have at most {_MAX_GRID_ROWS} rows, got {rows * count}")
    return np.linspace(lo, hi, count)


def _build_domain(config):
    if not config.get("domain"):
        raise DomainError("a --domain is required")
    return domain_from_config(config)


def _config_value(key, value):
    """A config file's value of key, read as its flag reads it.

    A typed key's value is a string that the flag's type reads, or a
    number (not a bool) that the type keeps as it is; a key with choices
    takes one of them.  Any other key takes a string, and m and the
    points also a list of numbers.
    """
    options = _ARGUMENTS[key]
    kind = options.get("type")
    if kind is not None:
        try:
            typed = kind(value) if type(value) in (str, int, float) else None
        except (ValueError, OverflowError):
            typed = None
        if typed is None or (type(value) is not str and typed != value):
            raise DomainError(f"config key {key!r} must read as {kind.__name__}, got {value!r}")
        return typed
    if "choices" in options and value not in options["choices"]:
        raise DomainError(f"{key} must be one of {options['choices']}, got {value!r}")
    if key in ("m", *_POINT):
        if type(value) is not str and not (type(value) is list and all(type(v) in (int, float) for v in value)):
            raise DomainError(f"{key} must be a string or a list of numbers, got {value!r}")
    elif type(value) is not str:
        raise DomainError(f"{key} must be a string, got {value!r}")
    return value


def _load_config(args) -> dict:
    """The settings of the command: its config file's keys, which must be
    destinations of the command's own arguments, then the flags given."""
    _, positional, flags = _COMMANDS[args.command]
    keys = {positional, *flags} - {"config"}
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read config file {args.config!r}: {exc}")
        if not isinstance(loaded, dict):
            raise DomainError("config file must hold a JSON object")
        unknown = set(loaded) - keys
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        # A null value leaves its key unset.
        config.update((key, _config_value(key, value)) for key, value in loaded.items()
                      if value is not None)
    for key in keys:
        val = getattr(args, key)
        if val is not None:
            config[key] = val
    return config


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

# The errors that rule out one row: eval reports them, a sweep marks the
# row and goes on.
_ROW_ERRORS = (DomainError, UnsupportedDomainError, ConvergenceError)


def _detached(exc):
    """exc cut loose from the frames it was raised and caught in.

    A sweep keeps one error per ruled-out row; through its traceback
    each would hold the frame that holds the list of them, a cycle that
    only the garbage collector frees.
    """
    exc.__traceback__ = exc.__context__ = exc.__cause__ = None
    return exc


def _kernel_row(kv):
    """(value, method, uncertainty) of a KernelValue."""
    return kv.value, kv.method, kv.uncertainty


def _bound_row(bound):
    """(value, method, uncertainty) of a DistanceBound."""
    return bound.value, "closed_form" if bound.exact else "sandwich_bounds", 0.5 * bound.width


def _density_row(dom, pts):
    value, unc = boundary_measure._density(dom, pts["xi"])
    return value, "levi_form", unc


def _kernel_route(values):
    """The exact route of a kernel quantity where xi is a BoundaryPoint:
    values(dom, xi, pts), a (method, values) pair."""
    def route(dom, xi):
        return (lambda pts: values(dom, xi, pts)) if isinstance(xi, BoundaryPoint) else None
    return route


def _green_route(dom, xi):
    # green_function refuses the annulus before it checks its points.
    return None if dom.kind == "annulus" else lambda pts: ("closed_form", kernels._green_rows(dom, pts["w"], pts["z"]))


def _no_kernel(dom, pts):
    raise kernels._no_certified_kernel(dom)


# Each quantity: the points it reads, in the order its function takes and
# checks them; route(dom, xi), its stacked exact route on the domain at
# xi or None; the function of the rows that route leaves None, or None
# for the one-point function; and its one-point function.  The route takes the interior points by key as
# stacks (k, n) and gives (method, values): each row the value that the
# one-point function gives the row alone, bit for bit, with that method
# and uncertainty 0, or None where it has none.  The other two take the domain and one row's points by key
# and give (value, method, uncertainty).
_ROUTES = {
    "green": (("w", "z"), _green_route,
              lambda dom, pts: _kernel_row(kernels._green_sandwich(dom, pts["w"], pts["z"])),
              lambda dom, pts: _kernel_row(kernels.green_function(dom, pts["w"], pts["z"]))),
    "poisson": (("xi", "z"), _kernel_route(lambda dom, xi, pts: kernels._exact_kernels(dom, xi, pts["z"])),
                _no_kernel, lambda dom, pts: _kernel_row(kernels.poisson_kernel(dom, pts["xi"], pts["z"]))),
    "horofunction": (("xi", "p", "z"),
                     _kernel_route(lambda dom, xi, pts: kernels._exact_horofunctions(dom, xi, pts["p"], pts["z"])),
                     lambda dom, pts: _kernel_row(
                         kernels._horofunction_rows(dom, pts["xi"], [pts["p"]], [pts["z"]], "ladder")[0]),
                     lambda dom, pts: _kernel_row(kernels.horofunction(dom, pts["xi"], pts["p"], pts["z"]))),
    "distance": (("z", "w"), lambda dom, xi: lambda pts: (
                     "closed_form", geodesics_metrics._exact_distances(dom, pts["z"], pts["w"])),
                 lambda dom, pts: _bound_row(geodesics_metrics._sandwich(dom, pts["z"], pts["w"])),
                 lambda dom, pts: _bound_row(geodesics_metrics.kobayashi_distance(dom, pts["z"], pts["w"]))),
    "density": (("xi",), lambda dom, xi: None, None, _density_row),
}


def _points(quantity, config, parse):
    """Each point the quantity reads, by key, in the order it reads them.

    A string is parse(key, text); a list of numbers becomes a complex
    array.  A point the quantity does not read is a DomainError.
    """
    if quantity not in _ROUTES:
        raise DomainError(f"unknown quantity {quantity!r}; expected one of {_QUANTITIES}")
    keys = _ROUTES[quantity][0]
    unread = [f"--{key}" for key in _POINT if key not in keys and config.get(key) is not None]
    if unread:
        raise DomainError(f"{quantity} does not read {', '.join(unread)}")
    points = {}
    for key in keys:
        raw = config.get(key)
        if raw is None:
            raise DomainError(f"quantity {quantity!r} requires --{key}")
        points[key] = parse(key, raw) if isinstance(raw, str) else np.asarray(raw, dtype=complex)
    return points


def _inside(dom, pt, key):
    """None if pt lies inside the domain, else the error require_interior raises."""
    try:
        require_interior(dom, pt, key)
    except DomainError as exc:
        return _detached(exc)


def _evaluate(quantity, dom, points, k):
    """The columns (values, methods, uncertainties) of k rows, and the error
    of each row ruled out, by row; such a row has NaN, "" and NaN.

    points maps each key the quantity reads to one point for all rows
    (xi possibly as its BoundaryPoint) or to a _Rows; eval passes k = 1.
    A row is ruled out by the first of its points, in the order the
    quantity reads them, whose template arithmetic failed.  Where the
    quantity has an exact route on the domain at xi (_ROUTES), the
    interior points of the other rows are then checked in that order, as
    the one-point function does (require_interior), a fixed point once;
    the first that is not inside rules its row out, and the rows that
    pass are evaluated in one call of the route.  The rows left call,
    one row at a time in row order, the quantity's function of the rows
    its route leaves None (the sandwich, the kernel refusal or the
    horofunction ladder, so that no row tries the exact routes twice),
    or the one-point function where there is no route, that function is
    None, or the route call fails.
    """
    keys, route_at, rest, one = _ROUTES[quantity]
    errors = {row: exc for key in reversed(keys) if isinstance(points[key], _Rows)  # the first point's stays
              for row, exc in points[key].errors.items()}
    values, methods, uncertainties = np.full(k, math.nan), np.full(k, "", dtype=object), np.full(k, math.nan)
    live = np.ones(k, dtype=bool)  # the rows not yet ruled out or evaluated
    live[list(errors)] = False
    route = route_at(dom, points.get("xi"))
    if route is not None:
        interior = [key for key in keys if key != "xi"]
        for key in interior:
            # Rows by one stacked check, a fixed point once.
            pt = points[key]
            if isinstance(pt, _Rows):
                exc = DomainError(f"{key} must lie inside the domain")
                inside = _inside_rows(dom, pt.stack if live.all() else pt.stack[live])
            else:
                exc = _inside(dom, pt, key)
                inside = exc is None
            outside = live.copy()
            outside[live] = np.logical_not(inside)
            errors.update(dict.fromkeys(np.flatnonzero(outside).tolist(), exc))
            live[live] = inside
        count = int(np.count_nonzero(live))
        stacks = {key: (points[key].stack if count == k else points[key].stack[live])
                  if isinstance(points[key], _Rows) else np.tile(points[key], (count, 1)) for key in interior}
        try:
            method, found = route(stacks) if count else (None, [])
        except (PluripotError, ArithmeticError, ValueError):
            found = [None] * count
        else:  # every row left is one the route left None
            one = rest or one
        if count == k and None not in found:
            return found, [method] * k, [0.0] * k, errors
        found = np.array(found, dtype=object)
        exact = np.not_equal(found, None)
        rows = np.flatnonzero(live)[exact]
        values[rows], methods[rows], uncertainties[rows] = found[exact], method, 0.0
        live[live] = ~exact
    for row in np.flatnonzero(live).tolist():
        pts = {key: points[key].stack[row] if isinstance(points[key], _Rows) else points[key]
               for key in keys}
        try:
            values[row], methods[row], uncertainties[row] = one(dom, pts)
        except _ROW_ERRORS as exc:
            errors[row] = _detached(exc)
    return values.tolist(), methods.tolist(), uncertainties.tolist(), errors


def cmd_eval(config) -> int:
    dom = _build_domain(config)
    quantity = config.get("quantity")
    points = _points(quantity, config, lambda key, text: _parse_point(text, dom.n))
    values, methods, uncertainties, errors = _evaluate(quantity, dom, points, 1)
    if errors:
        raise errors[0]
    row = {"quantity": quantity, "domain": dom.label}
    row.update((key, _point_str(points[key])) for key in _POINT if key in points)
    row.update(value=values[0], method=methods[0], uncertainty=uncertainties[0])

    fmt = config.get("format") or "json"
    if fmt == "json":
        _emit(_dumps({"schema": 1, "rows": [row]}) + "\n", config.get("out"))
    else:
        buf = io.StringIO()
        _write_csv({key: [cell] for key, cell in row.items()}, buf)
        _emit(buf.getvalue(), config.get("out"))
    return 0


def cmd_verify(config) -> int:
    name = config.get("suite")
    reports = run_suite(name, config)
    bundle = {"schema": 1, "suite": name,
              "reports": [dict(r.to_json(), details=r.details) for r in reports]}
    for r in reports:
        sys.stderr.write(f"{r.check}: {r.verdict}\n")
    _emit(_dumps(bundle) + "\n", config.get("out"))
    return 0 if all(r.verdict == "pass" for r in reports) else 3


def cmd_sweep(config) -> int:
    dom = _build_domain(config)
    quantity = config.get("quantity")
    if not config.get("grid_t"):
        raise DomainError("sweep requires --grid-t start:stop:count")
    axes = {"t": _parse_grid(config["grid_t"]).tolist()}
    if config.get("grid_s") not in (None, ""):
        axes["s"] = _parse_grid(config["grid_s"], len(axes["t"])).tolist()
    points = _points(quantity, config, lambda key, text: _sweep_point(dom, key, text, axes))
    k = math.prod(map(len, axes.values()))
    values, methods, uncertainties, errors = _evaluate(quantity, dom, points, k)
    statuses = ["ok"] * k
    for row, exc in errors.items():
        statuses[row] = "error" if isinstance(exc, ConvergenceError) else "outside"
    fmt = config.get("format") or "csv"
    if fmt == "json":
        quote = functools.cache(json.dumps)
        methods, statuses = map(quote, methods), map(quote, statuses)
    # Each axis value is formatted once: a t text repeats along s, and the s texts for each t.
    ts, *ss = map(_float_texts, axes.values())
    grid = [[text for text in ts for _ in range(k // len(ts))], *(texts * len(ts) for texts in ss)]
    rows = zip(*grid, _float_texts(values), methods, _distinct_texts(uncertainties), statuses)
    _emit(_table(fmt, [*axes, "value", "method", "uncertainty", "status"], rows), config.get("out"))
    return 0


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pluripot",
        description="Boundary kernels, invariant distances, and theorem verification "
                    "for convex domains.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, positional, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument(positional, **_ARGUMENTS[positional])
        for dest in flags:
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, **_ARGUMENTS[dest])
    return parser


# Flags whose values may start with a minus sign ("--w -0.2,0.4",
# "--grid-t -0.9:0.9:60"); argparse would read such a value as an option.
_SIGNED_VALUE_FLAGS = ("--xi", "--z", "--w", "--p", "--grid-t", "--grid-s")


def _attach_signed_values(argv):
    """Rewrite "--w -0.2,0.4" as "--w=-0.2,0.4" for the point and grid flags."""
    out = []
    for tok in argv:
        if out and out[-1] in _SIGNED_VALUE_FLAGS and tok.startswith("-") and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(_attach_signed_values(sys.argv[1:] if argv is None else list(argv)))
    dests = {dest for _, _, flags in _COMMANDS.values() for dest in flags}
    unread = [flag for flag in (tok.split("=", 1)[0] for tok in extra)
              if flag.startswith("--") and flag[2:].replace("-", "_") in dests]
    if extra and not unread:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if unread:
            # A flag of another command is a setting this one ignores.
            raise DomainError(f"{args.command} does not read {', '.join(unread)}")
        config = _load_config(args)
        if args.command == "eval":
            return cmd_eval(config)
        if args.command == "verify":
            return cmd_verify(config)
        return cmd_sweep(config)
    except (DomainError, UnsupportedDomainError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except ConvergenceError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except PluripotError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
