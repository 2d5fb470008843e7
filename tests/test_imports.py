"""What the package imports and offers: every imported name is used, no
scipy, no keyword default that only tests change, no class member that
the package never reads, and no definition that the command line does
not reach unless it is named library-only, in this file and in README."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pluripot

SRC = pathlib.Path(pluripot.__file__).parent
TESTS = pathlib.Path(__file__).parent
ROOT = TESTS.parent


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}


def test_unused_import_is_found():
    tree = ast.parse("import math\nfrom os import path, sep\n__all__ = ['sep']\n")
    assert _unused_imports(tree) == [(1, "math"), (2, "path")]


def _names_in(node):
    """Names, attribute names and from-imported names anywhere in node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _defined_by(node):
    """The top-level names a module statement defines (dunders aside)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]


def _unreached(modules, roots):
    """(module, name) of each top-level definition in modules (name -> tree)
    that the statements of the root modules other than definitions do not
    reach, directly or through the definitions they reach.

    A name or attribute reaches every top-level definition of that name in
    any module, so two definitions sharing a name are reached together.
    """
    defs = {}
    pending = []
    for module, tree in modules.items():
        for node in tree.body:
            names = _defined_by(node)
            for name in names:
                defs.setdefault(name, []).append((module, node))
            if module in roots and not names:
                pending.extend(_names_in(node))
    reached = set()
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            for _, node in defs.get(name, []):
                pending.extend(_names_in(node))
    return {(module, name) for name, found in defs.items() for module, _ in found
            if name not in reached}


# Tested paper-claim helpers that no verify suite calls yet, and the
# one-value forms of what `eval density` reads from one Levi form; README
# lists them, the helpers with the ROADMAP item that will give each a check.
_LIBRARY_ONLY = {
    ("kernels", "horosphere_contains"),
    ("kernels", "k_region_contains"),
    ("kernels", "boundary_distance_asymptotic"),
    ("kernels", "green_normal_derivative"),
    ("geodesics_metrics", "caratheodory_lower_bound"),
    ("geodesics_metrics", "slice_upper_bound"),
    ("domain_core", "line_type"),
    ("domain_core", "_MAX_LINE_TYPE"),
    ("boundary_measure", "boundary_form_density"),
    ("domain_core", "levi_data"),
}


def test_every_definition_is_reached_from_the_command_line():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _unreached(modules, {"cli", "_suites", "__main__"}) == _LIBRARY_ONLY


def test_readme_names_the_library_only_definitions():
    # The bullet list after README's "library-only API" paragraph; each
    # bullet names its definitions in backticks before its first colon.
    text = (ROOT / "README.md").read_text()
    bullets = text.split("except this library-only API", 1)[1].split("\n\n")[1]
    named = re.findall(r"`(\w+)`", "".join(re.findall(r"^- ([^:]*):", bullets, flags=re.M)))
    assert sorted(named) == sorted(name for _, name in _LIBRARY_ONLY)


def test_unreached_definition_is_found():
    modules = {
        "cli": ast.parse("from . import lib\nif __name__ == '__main__':\n    lib.used()\n"),
        "lib": ast.parse("LIMIT = 3\n"
                         "def used():\n    return LIMIT\n"
                         "def dead():\n    return orphan()\n"
                         "def orphan():\n    pass\n"),
    }
    assert _unreached(modules, {"cli"}) == {("lib", "dead"), ("lib", "orphan")}


def _unset_defaults(defs_tree, call_trees):
    """(line, function, parameter) of each keyword default in defs_tree
    that no call in call_trees overrides, by keyword or by position.

    Calls are matched by the called name alone, so a call of another
    function of the same name counts too; a call with *args or **kwargs
    overrides nothing, since which parameters it sets is not visible.
    """
    calls = {}
    for tree in call_trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    found = []
    for node in ast.walk(defs_tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        params = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        params += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        explicit = [call for call in calls.get(node.name, [])
                    if not any(isinstance(a, ast.Starred) for a in call.args)
                    and all(k.arg is not None for k in call.keywords)]
        for index, param in params:
            if not any(any(k.arg == param for k in call.keywords)
                       or (index is not None and len(call.args) > index)
                       for call in explicit):
                found.append((node.lineno, node.name, param))
    return found


# Keyword defaults that no call in the repository's code changes, kept
# with their reason: the console script calls main() with no argv, and
# perfbench's call_cli passes its argv through a timing wrapper.
_CALLED_INDIRECTLY = {("cli.py", "main", "argv")}


def test_every_keyword_default_is_overridden_somewhere():
    # A keyword default that only tests change, or none, is a setting with
    # one value in use: it belongs in the function body or a module
    # constant.  The callers are the package, perfbench and tools.
    callers = [path for folder in (SRC, ROOT / "perfbench", ROOT / "tools")
               for path in sorted(folder.glob("*.py"))]
    call_trees = [ast.parse(path.read_text()) for path in callers]
    unset = {(path.name, name, param)
             for path, tree in zip(callers, call_trees) if path.parent == SRC
             for _, name, param in _unset_defaults(tree, call_trees)}
    assert unset == _CALLED_INDIRECTLY


def test_unset_default_is_found():
    defs = ast.parse("def f(a, b=1, *, c=2, d=3):\n    pass\n"
                     "def g(a=0):\n    pass\n")
    calls = ast.parse("f(0, 5)\nf(0, d=4)\nm.g(*xs)\nf(**kw)\n")
    assert _unset_defaults(defs, [defs, calls]) == [(1, "f", "c"), (3, "g", "a")]


def _members(tree):
    """(class, name) of each dataclass field, slot, method and property of
    the classes in tree, dunders aside."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            names = []
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                                      for t in node.targets):
                names = list(ast.literal_eval(node.value))
            found += [(cls.name, name) for name in names if not name.startswith("__")]
    return found


def _unread_members(trees):
    """Sorted (class, name) of each member of a class in trees that no
    tree reads by name: as obj.name in a load, or getattr(obj, "name")."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    return sorted(member for tree in trees for member in _members(tree) if member[1] not in read)


def test_every_class_member_is_read_somewhere():
    # A field or method that the package never reads is kept only for
    # its tests, or for no one.
    assert _unread_members([ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]) == []


def test_unread_member_is_found():
    tree = ast.parse("@dataclass\nclass A:\n    kept: int\n    dropped: int\n"
                     "    def used(self):\n        return self.kept\n"
                     "    def unused(self):\n        pass\n"
                     "    @property\n    def prop(self):\n        return 1\n"
                     "    def __call__(self):\n        pass\n"
                     "class B:\n    __slots__ = ('read', 'written')\n"
                     "    def __init__(self):\n        self.read, self.written = 1, 2\n"
                     "def f(a, b):\n    return a.used(), a.prop, getattr(b, 'read'), A(kept=1, dropped=2)\n")
    assert _unread_members([tree]) == [("A", "dropped"), ("A", "unused"), ("B", "written")]


def test_import_loads_no_scipy():
    code = ("import sys, pluripot, pluripot.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
