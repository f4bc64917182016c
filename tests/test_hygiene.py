"""Source hygiene: no module of the package imports a name it never uses,
every name a module lists in ``__all__`` is bound in it, every private
top-level name is read somewhere in the package, every defaulted
parameter of a package function is supplied by some call in the repo,
every error class is raised somewhere in the package, the only scipy
subpackage a module imports at its top level is ``scipy.special``, and no
module but ``functional.py`` compares a ``.mode``: what a problem mode
means is written once, in its table ``functional._MODES``.

A stdlib `ast` pass stands in for a linter.  An import on a line marked
``# noqa: F401`` is kept on purpose, a name listed in ``__all__`` is
exported, and everything `__init__.py` imports is a re-export.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "choquard_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = sorted(p for d in ("src", "tests", "bench")
                 for p in (PACKAGE.parents[1] / d).rglob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(exports(tree))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def exports(tree: ast.Module) -> list:
    """The names listed in the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def defined_names(tree: ast.Module) -> set:
    """Names bound by the module's top-level def, class and assignment statements."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return bound


def unbound_exports(source: str) -> list:
    """Names in ``__all__`` that no top-level statement of the module binds."""
    tree = ast.parse(source)
    bound = defined_names(tree)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return sorted(name for name in exports(tree) if name not in bound)


def unread_private_names(sources: dict) -> list:
    """(module, name) for each private top-level function, class or constant
    that no module of `sources` reads, as a name or as an attribute."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted((mod, name) for mod, tree in trees.items() for name in defined_names(tree)
                  if name.startswith("_") and not name.startswith("__") and name not in read)


def test_the_check_sees_an_unused_import():
    src = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n__all__ = ['tau']\n"
    assert unused_imports(src) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unbound_export():
    src = "import os\nfrom math import pi as PI\nX: int = 1\ndef f(): pass\n" \
          "__all__ = ['os', 'PI', 'X', 'f', 'Gone']\n"
    assert unbound_exports(src) == ["Gone"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text()) == []


def test_the_check_sees_an_unread_private_name():
    sources = {"a": "_TOL = 1e-6\n_LIMIT = 2\ndef _f():\n    return _LIMIT\n",
               "b": "from a import _f\nclass _Unused: pass\nx = _f()\n"}
    assert unread_private_names(sources) == [("a", "_TOL"), ("b", "_Unused")]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def unsupplied_defaults(sources: dict, callers: list) -> list:
    """(module, function, parameter) for each defaulted parameter of a
    top-level function of `sources` that no call in `callers` supplies.

    A call matches by function or attribute name and supplies a parameter by
    keyword or by position; a ``*args`` or ``**kwargs`` call supplies all.
    """
    calls = defaultdict(list)
    for src in callers:
        for n in ast.walk(ast.parse(src)):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                calls[n.func.id if isinstance(n.func, ast.Name) else n.func.attr].append(n)

    def supplies(call, positional, param):
        return (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg in (None, param) for k in call.keywords)
                or param in positional[:len(call.args)])

    missing = []
    for mod, src in sources.items():
        for fn in ast.parse(src).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            positional = [x.arg for x in a.posonlyargs + a.args]
            defaulted = positional[len(positional) - len(a.defaults):] + [
                k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            missing += [(mod, fn.name, param) for param in defaulted
                        if not any(supplies(c, positional, param) for c in calls[fn.name])]
    return sorted(missing)


def test_the_check_sees_an_unsupplied_default():
    sources = {"a": "def f(x, y=1, z=2, *, w=3):\n    pass\n"
                    "def g(x=0, y=1):\n    pass\n"
                    "def h(x=0):\n    pass\n"}
    callers = ["f(0, 1)\nobj.f(0, w=4)\ng(*xs)\n", "m.h(**kw)\n"]
    assert unsupplied_defaults(sources, callers) == [("a", "f", "z")]


def test_every_default_is_supplied():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unsupplied_defaults(sources, [p.read_text() for p in CALLERS]) == []


def unraised_errors(errors_source: str, sources: list) -> list:
    """The classes of `errors_source`, its first (the base) aside, that no
    ``raise`` statement of `sources` names."""
    classes = [n.name for n in ast.parse(errors_source).body if isinstance(n, ast.ClassDef)]
    raised = set()
    for src in sources:
        for n in ast.walk(ast.parse(src)):
            if isinstance(n, ast.Raise) and n.exc is not None:
                exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
                raised |= {exc.id} if isinstance(exc, ast.Name) else set()
    return [name for name in classes[1:] if name not in raised]


def test_the_check_sees_an_unraised_error():
    errors = "class Base(Exception): pass\nclass A(Base): pass\nclass B(Base): pass\n" \
             "class C(Base): pass\n"
    sources = ["def f():\n    raise A('x')\n", "try:\n    pass\nexcept C:\n    raise B\n"]
    # catching C does not raise it
    assert unraised_errors(errors, sources) == ["C"]
    assert unraised_errors(errors, sources[:1]) == ["B", "C"]


def test_every_error_is_raised():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unraised_errors((PACKAGE / "errors.py").read_text(), sources) == []


def top_level_scipy_imports(source: str) -> list:
    """(line, module) for each import of a scipy module other than
    ``scipy.special`` among the module's top-level statements; an import
    inside a function runs only when that function is called."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [(node.lineno, node.module)] if node.module != "scipy" else [
                (node.lineno, f"scipy.{a.name}") for a in node.names]
    return [(line, mod) for line, mod in found
            if mod.split(".")[0] == "scipy" and mod.split(".")[:2] != ["scipy", "special"]]


def test_the_check_sees_a_top_level_scipy_import():
    src = ("import numpy as np\nimport scipy.linalg\nfrom scipy.special import gamma\n"
           "from scipy import sparse, special\nfrom scipy.sparse.linalg import gmres\n"
           "def f():\n    from scipy.integrate import quad\n")
    assert top_level_scipy_imports(src) == [(2, "scipy.linalg"), (4, "scipy.sparse"),
                                            (5, "scipy.sparse.linalg")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_top_level_scipy_imports_are_scipy_special(path):
    assert top_level_scipy_imports(path.read_text()) == []


def mode_comparisons(source: str) -> list:
    """Lines of the comparisons (==, in, ...) that have a ``.mode`` attribute
    on either side."""
    return sorted({n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Compare)
                   and any(isinstance(x, ast.Attribute) and x.attr == "mode"
                           for x in [n.left, *n.comparators])})


def test_the_check_sees_a_mode_comparison():
    # a lookup keyed by the mode is no comparison
    src = ("if p.mode == 'lambda':\n    pass\ny = 'mu' != q.mode\n"
           "z = table[p.mode] is None\nw = p.mode in ('mu', 'lambda')\n")
    assert mode_comparisons(src) == [1, 3, 5]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "functional.py"],
                         ids=lambda p: p.name)
def test_only_functional_compares_a_mode(path):
    assert mode_comparisons(path.read_text()) == []
