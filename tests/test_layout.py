"""Module layout rules of src/posreal, checked on the source text.

Private helpers (names with a leading underscore) are not imported
across modules: a helper that another module needs becomes public.  The
one exception is the conditioning guard ``_refuse_ill_conditioned``,
whose home the benchmark tracer pins until the guard moves to ``core``;
only ``kernels`` binds it, for the benchmark's test of that tracer, and
every other module reaches the guard through ``pencil.guarded_solve``.

Every name a module lists in ``__all__`` is bound at its top level, so
deleting a function or class also means deleting its export.

The single-point convention of batched evaluators (one point in, its
value alone out) lives in ``core.like_points``; no other module spells
it out as ``... if ....ndim == 1 else ...``.

The guard has one library call, in ``pencil.guarded_solve``, which
passes it the required ``bound``; no call of ``guarded_solve`` passes a
literal ``None`` there.  So the condition estimate runs only where no
proven inequality clears a matrix.

``np.linalg.solve`` and ``np.linalg.inv`` are called only in
``pencil.guarded_solve``, right after its guard, so no system is solved
unguarded; a function that calls the guard and then solves by itself
breaks the rule too.  The exceptions are listed by function: the named
cross-check ``calculus.pointwise_diagonal_oracle``, and the sampler
``sampling.random_diagonalizable_accretive_pair``, which redraws a matrix
whose condition exceeds 10 before inverting it.

``np.linalg.cond`` is called only inside the guard, so there is one
conditioning estimate and one refusal threshold.  The exception is that
same sampler, whose redraw is not a refusal.

The command line only parses, calls and prints: ``cli.py`` makes no
``np.linalg`` call, so every norm, solve and decomposition of a run
lives in a library module, where the verification battery and the
other subcommands' math are.

No orphans: a public definition (top-level function or class, or public
method of a public class) that no library code mentions outside its own
body is kept only with a row in the README's paper-to-code map, as a
paper statement, a named cross-check or a benchmark pin.  The rows whose
library-caller column reads "none" are exactly the orphans, every row
names an existing definition and an existing test, and every other row's
definition does have a library caller.  So an alias or wrapper that only
tests call cannot be added without the map saying why it stays.  A
caller of a top-level function or class is resolved per module, through
the module's own definitions, its ``from`` imports and its module
aliases, so two modules' definitions of one name are told apart; a
method's callers are still counted by name.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "posreal"
README = TESTS.parent / "README.md"
MAP_HEADING = "## Paper-to-code map"
ALLOWED = {"_refuse_ill_conditioned"}
GUARD = "_refuse_ill_conditioned"
# the one function that calls the guard, and the one that solves behind it
GUARDED_SOLVE = "guarded_solve"
GUARDED_SOLVE_SITE = "pencil.guarded_solve"
# functions that may solve or invert without the guard
UNGUARDED_SOLVES = {
    "calculus.pointwise_diagonal_oracle",
    "sampling.random_diagonalizable_accretive_pair",
}
SOLVERS = {"np.linalg.solve", "np.linalg.inv"}
# functions that may call the condition estimate
ESTIMATORS = {GUARD, "random_diagonalizable_accretive_pair"}
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(source: str) -> list[tuple[int, str, str]]:
    """(line, module, name) of every ``from <posreal module> import _name``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module != "posreal" and not module.startswith("posreal."):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and alias.name not in ALLOWED:
                found.append((node.lineno, "." * node.level + module, alias.name))
    return found


def unbound_exports(source: str) -> list[str]:
    """Names in ``__all__`` that no top-level def, class, assignment or import binds."""
    exported, bound = [], set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def single_point_copies(source: str) -> list[int]:
    """Lines that spell out the single-point convention instead of calling ``like_points``."""
    return [i for i, line in enumerate(source.splitlines(), 1) if "ndim == 1 else" in line]


def calls_by_function(source: str) -> list[tuple[str, ast.Call]]:
    """(innermost enclosing function, call) of every call; "<module>" outside functions."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                found.append((func, child))
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


def _called(call: ast.Call) -> str | None:
    """The called name, bare or the last part of a dotted name."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def guard_callers(source: str) -> list[str]:
    """The innermost enclosing function of every guard call, once per call, in source order."""
    return [func for func, call in calls_by_function(source) if _called(call) == GUARD]


def uncertified_guard_calls(source: str) -> list[tuple[str, str]]:
    """(enclosing function, stage) of every guard call that may lack a certified bound.

    That is a guard call outside a function named ``guarded_solve``, a guard
    call inside one without a ``bound=`` keyword, and a ``guarded_solve``
    call whose bound (fifth positional argument or ``bound=``) is missing or
    the literal ``None``.  The stage is the argument after ``pol`` when it
    is a string literal, else its source text.
    """
    found = []
    for func, call in calls_by_function(source):
        name = _called(call)
        if name not in (GUARD, GUARDED_SOLVE):
            continue
        pos = 2 if name == GUARD else 3
        keys = {k.arg: k.value for k in call.keywords}
        bound = keys.get("bound", call.args[4] if name == GUARDED_SOLVE and len(call.args) > 4 else None)
        uncertified = bound is None or (isinstance(bound, ast.Constant) and bound.value is None)
        if (name == GUARD and func != GUARDED_SOLVE) or uncertified:
            stage = call.args[pos] if len(call.args) > pos else keys.get("what")
            text = (stage.value if isinstance(stage, ast.Constant)
                    else ast.unparse(stage) if stage is not None else "")
            found.append((func, text))
    return found


def unguarded_solves(source: str) -> list[str]:
    """Functions that call ``np.linalg.solve`` or ``np.linalg.inv``, each listed once, in source order.

    A call counts for the innermost function that contains it, and a
    guard call beside it does not excuse it: the only guarded solve is
    ``pencil.guarded_solve``'s own, which the module rule allows by name.
    """
    return list(dict.fromkeys(func for func, call in calls_by_function(source)
                              if ast.unparse(call.func) in SOLVERS))


def condition_estimates(source: str) -> list[str]:
    """Functions that call ``np.linalg.cond``, each listed once, in source order.

    A call counts for the innermost function that contains it.
    """
    return list(dict.fromkeys(func for func, call in calls_by_function(source)
                              if ast.unparse(call.func) == "np.linalg.cond"))


def linalg_calls(source: str) -> list[str]:
    """The ``np.linalg`` functions a module calls, each listed once, in source order."""
    return list(dict.fromkeys(name for _, call in calls_by_function(source)
                              if (name := ast.unparse(call.func)).startswith("np.linalg.")))


def public_definitions(module: str, tree: ast.Module) -> dict[str, ast.AST]:
    """``module.name`` (or ``module.Class.name``) of each public top-level function
    and class and of each public method of a public class, mapped to its node."""
    found = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found[f"{module}.{node.name}"] = node
        for sub in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                found[f"{module}.{node.name}.{sub.name}"] = sub
    return found


def mentions(node: ast.AST) -> Counter:
    """How often each identifier occurs as a ``Name`` or an ``Attribute`` in ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def top_level_mentions(module: str, tree: ast.Module, node: ast.AST) -> Counter:
    """How often each top-level ``module.name`` of the package is mentioned in ``node``,
    a part of ``module`` whose syntax tree is ``tree``.

    A bare name resolves through the module's own top-level definitions
    and its ``from`` imports; ``alias.name`` resolves through a module
    alias (``from . import alias`` or ``import posreal.alias``).
    """
    bare = {n.name: f"{module}.{n.name}" for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    aliases = {}
    for imp in ast.walk(tree):
        if isinstance(imp, ast.ImportFrom) and (imp.level or (imp.module or "").startswith("posreal")):
            source = (imp.module or "").removeprefix("posreal").lstrip(".")
            for a in imp.names:
                if source:
                    bare[a.asname or a.name] = f"{source}.{a.name}"
                else:
                    aliases[a.asname or a.name] = a.name
        elif isinstance(imp, ast.Import):
            for a in imp.names:
                if a.name.startswith("posreal.") and a.asname:
                    aliases[a.asname] = a.name.removeprefix("posreal.")
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and n.id in bare:
            found[bare[n.id]] += 1
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in aliases):
            found[f"{aliases[n.value.id]}.{n.attr}"] += 1
    return found


def orphans(sources: dict[str, str]) -> set[str]:
    """Public definitions of the {module: source} package that no code mentions outside their own body.

    A top-level function or class counts only the mentions that resolve
    to it (``top_level_mentions``), so two modules' definitions of one
    name are told apart; a method counts every mention of its name.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((mentions(tree) for tree in trees.values()), Counter())
    resolved = sum((top_level_mentions(m, tree, tree) for m, tree in trees.items()), Counter())
    found = set()
    for module, tree in trees.items():
        for key, node in public_definitions(module, tree).items():
            if key.count(".") == 1:
                lonely = resolved[key] == top_level_mentions(module, tree, node)[key]
            else:
                lonely = everywhere[node.name] == mentions(node)[node.name]
            if lonely:
                found.add(key)
    return found


def paper_map(readme: str) -> list[tuple[str, str, str]]:
    """(definition, test, library caller) of each row of the README's paper-to-code map.

    The table's columns are statement, definition, test and library caller;
    the definition and the test are the backticked text of their cells.
    """
    section = readme.split(MAP_HEADING + "\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    cells = [[c.strip() for c in row.strip().strip("|").split("|")] for row in rows]
    return [(name.strip("`"), test.strip("`"), caller) for _, name, test, caller in cells]


def resolves(path: Path, dotted: list[str]) -> bool:
    """The file at ``path`` defines the top-level ``dotted[0]``, then ``dotted[1]`` inside it, ..."""
    if not path.is_file():
        return False
    body = ast.parse(path.read_text()).body
    for name in dotted:
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def library_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in MODULES if path.name != "__init__.py"}


def test_package_modules_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_single_point_convention_only_in_core(path):
    assert single_point_copies(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_guard_call_passes_a_bound(path):
    assert uncertified_guard_calls(path.read_text()) == []


def test_the_guard_has_one_library_call():
    # in pencil.guarded_solve, which every guarded matrix goes through
    found = [f"{path.stem}.{func}" for path in MODULES for func in guard_callers(path.read_text())]
    assert found == [GUARDED_SOLVE_SITE]


def test_only_pencil_and_kernels_name_the_guard():
    # pencil defines and calls it; kernels binds it for the benchmark's tracer test
    assert [path.name for path in MODULES if GUARD in path.read_text()] == ["kernels.py", "pencil.py"]


@pytest.mark.parametrize("source, hits", [
    ("def f(m, pol):\n    _refuse_ill_conditioned(m, pol, 'X')\n", [("f", "X")]),
    # a bounded guard call outside guarded_solve: the old rule accepted it
    ("def f(m, pol, b):\n    _refuse_ill_conditioned(m, pol, 'X', bound=b)\n", [("f", "X")]),
    ("def f(m, pol, w):\n    pencil._refuse_ill_conditioned(m, pol, w)\n", [("f", "w")]),
    ("class C:\n    def g(self, m):\n        _refuse_ill_conditioned(m, self.pol, 'Y')\n",
     [("g", "Y")]),
    ("_refuse_ill_conditioned(m, pol, 'top')\n", [("<module>", "top")]),
    ("def guarded_solve(m, b, pol, what, bound):\n    _refuse_ill_conditioned(m, pol, what, bound=bound)\n"
     "    return np.linalg.solve(m, b)\n", []),
    ("def guarded_solve(m, b, pol, what, bound):\n    _refuse_ill_conditioned(m, pol, what)\n",
     [("guarded_solve", "what")]),
    ("def guarded_solve(m, b, pol, what, bound):\n    _refuse_ill_conditioned(m, pol, what, bound=None)\n",
     [("guarded_solve", "what")]),
    # the guard of guarded_solve does not cover a nested function
    ("def guarded_solve(m, b, pol, what, bound):\n"
     "    def g():\n        _refuse_ill_conditioned(m, pol, 'X', bound=bound)\n    g()\n", [("g", "X")]),
    ("def f(m, b, pol, c):\n    return guarded_solve(m, b, pol, 'X', c)\n", []),
    ("def f(m, b, pol):\n    return pencil.guarded_solve(m, b, pol, 'X', bound=[1.0])\n", []),
    ("def f(m, b, pol):\n    return guarded_solve(m, b, pol, 'X', None)\n", [("f", "X")]),
    ("def f(m, b, pol):\n    return pencil.guarded_solve(m, b, pol, what='X', bound=None)\n", [("f", "X")]),
    ("def f(m, b, pol):\n    return guarded_solve(m, b, pol, 'X')\n", [("f", "X")]),
])
def test_rule_detects_unbounded_guard_calls(source, hits):
    assert uncertified_guard_calls(source) == hits


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_solve_is_guarded(path):
    # a direct solve is allowed in guarded_solve and the two named unguarded functions only
    sites = {f"{path.stem}.{func}" for func in unguarded_solves(path.read_text())}
    assert sites <= UNGUARDED_SOLVES | {GUARDED_SOLVE_SITE}


def test_unguarded_solves_still_exist():
    # an allow-list entry whose solve is gone must be dropped
    found = set()
    for path in MODULES:
        found |= {f"{path.stem}.{func}" for func in unguarded_solves(path.read_text())}
    assert found == UNGUARDED_SOLVES | {GUARDED_SOLVE_SITE}


@pytest.mark.parametrize("source, hits", [
    ("def f(m, b):\n    return np.linalg.solve(m, b)\n", ["f"]),
    ("def f(m):\n    return np.linalg.inv(m)\n", ["f"]),
    # a guard call beside a solve does not make it the guarded solve: the old rule accepted these
    ("def f(m, b, pol):\n    _refuse_ill_conditioned(m, pol, 'X', bound=1.0)\n"
     "    return np.linalg.solve(m, b)\n", ["f"]),
    ("def f(m, b, pol):\n    pencil._refuse_ill_conditioned(m, pol, 'X', bound=1.0)\n"
     "    return np.linalg.inv(m)\n", ["f"]),
    ("def f(m, b, pol):\n    _refuse_ill_conditioned(m, pol, 'X', bound=1.0)\n"
     "    def g():\n        return np.linalg.solve(m, b)\n    return g()\n", ["g"]),
    ("class C:\n    def g(self, m):\n        return np.linalg.solve(m, m)\n", ["g"]),
    ("def f(m):\n    return np.linalg.cond(m), np.linalg.eigh(m)\n", []),
    ("def f(m, b, pol, c):\n    return guarded_solve(m, b, pol, 'X', c)\n", []),
    ("def guarded_solve(m, b, pol, what, bound):\n    _refuse_ill_conditioned(m, pol, what, bound=bound)\n"
     "    return np.linalg.solve(m, b)\n", ["guarded_solve"]),
    ("def f(m, b):\n    x = np.linalg.solve(m, b)\n    return np.linalg.inv(m) @ x\n", ["f"]),
])
def test_rule_detects_unguarded_solves(source, hits):
    assert unguarded_solves(source) == hits


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_condition_estimate_only_in_the_guard(path):
    assert set(condition_estimates(path.read_text())) <= ESTIMATORS


def test_condition_estimators_still_exist():
    # an allow-list entry whose estimate is gone must be dropped
    found = set()
    for path in MODULES:
        found |= set(condition_estimates(path.read_text()))
    assert found == ESTIMATORS


@pytest.mark.parametrize("source, hits", [
    ("def f(m):\n    return np.linalg.cond(m) > 1e12\n", ["f"]),
    ('def f(m):\n    """np.linalg.cond(m), in prose"""\n    return np.linalg.norm(m)\n', []),
    ("class C:\n    def g(self, m):\n        return np.linalg.cond(m), np.linalg.cond(m.T)\n", ["g"]),
    # an estimate in a nested function counts for that function only
    ("def f(m):\n    def g():\n        return np.linalg.cond(m)\n    return g()\n", ["g"]),
    ("c = np.linalg.cond(m)\n", ["<module>"]),
])
def test_rule_detects_condition_estimates(source, hits):
    assert condition_estimates(source) == hits


def test_cli_does_no_linear_algebra():
    assert linalg_calls((PACKAGE / "cli.py").read_text()) == []


@pytest.mark.parametrize("source, hits", [
    ("def f(v):\n    return np.linalg.norm(v, 2)\n", ["np.linalg.norm"]),
    ("x = np.linalg.solve(a, b)\ny = np.linalg.norm(x) + np.linalg.norm(b)\n",
     ["np.linalg.solve", "np.linalg.norm"]),
    ('def f(v):\n    """np.linalg.norm(v), in prose"""\n    return library_norm(v)\n', []),
    ("def f(v):\n    return np.asarray(v), np.stack([v])\n", []),
])
def test_rule_detects_linalg_calls(source, hits):
    assert linalg_calls(source) == hits


@pytest.mark.parametrize("source, missing", [
    ("__all__ = ['f', 'C', 'X', 'np']\nimport numpy as np\ndef f(): pass\nclass C: pass\nX = 1\n", []),
    ("__all__ = ['f', 'gone']\ndef f(): pass\n", ["gone"]),
    ("__all__ = ['helper']\ndef outer():\n    def helper(): pass\n", ["helper"]),
    ("from .pencil import schur_solve as solve\n__all__: list = ['solve', 'schur_solve']\n",
     ["schur_solve"]),
])
def test_rule_detects_unbound_exports(source, missing):
    assert unbound_exports(source) == missing


@pytest.mark.parametrize("source, hits", [
    ("from .pencil import _blocks_at\n", [(1, ".pencil", "_blocks_at")]),
    ("from posreal.core import _ROW_BLOCK\n", [(1, "posreal.core", "_ROW_BLOCK")]),
    ("from .pencil import RealizedFunction, _refuse_ill_conditioned\n", []),
    ("from __future__ import annotations\nfrom numpy import _NoValue\n", []),
    ("def f():\n    from .cayley import _helper\n", [(2, ".cayley", "_helper")]),
])
def test_rule_detects_private_imports(source, hits):
    assert private_imports(source) == hits


@pytest.mark.parametrize("source, hits", [
    ("def f(z):\n    return out[0] if np.asarray(z).ndim == 1 else out\n", [2]),
    ("single = pts[None] if pts.ndim == 1 else pts\n", [1]),
    ("if pts.ndim == 1:\n    pts = pts[None, :]\n", []),
    ("return like_points(z, out)\n", []),
])
def test_rule_detects_single_point_copies(source, hits):
    assert single_point_copies(source) == hits


def test_every_orphan_has_a_row_in_the_paper_map():
    kept = {name for name, _, caller in paper_map(README.read_text()) if caller == "none"}
    assert orphans(library_sources()) == kept


def test_every_paper_map_row_resolves():
    sources = library_sources()
    defined = set().union(*(public_definitions(m, ast.parse(s)) for m, s in sources.items()))
    lonely = orphans(sources)
    for name, test, caller in paper_map(README.read_text()):
        assert caller in ("yes", "none"), name
        assert name in defined, name
        assert (name in lonely) == (caller == "none"), name
        file, *dotted = test.split("::")
        assert resolves(TESTS / file, dotted), test


@pytest.mark.parametrize("source, found", [
    ("def f(): pass\ndef g():\n    return f()\n", {"m.g"}),
    # a mention inside its own body is not a caller
    ("def f(n):\n    return f(n - 1)\n", {"m.f"}),
    ("class C:\n    def a(self): pass\n    def b(self):\n        return self.a()\n",
     {"m.C", "m.C.b"}),
    # ``posreal`` is no module alias here, so ``posreal.f`` does not resolve to m.f
    ("def f(): pass\nx = posreal.f\n", {"m.f"}),
    ("def _h(): pass\nclass _C:\n    def a(self): pass\n", set()),
    ("def f():\n    def inner(): pass\n", {"m.f"}),
    ('def f():\n    """f, in prose only"""\n', {"m.f"}),
])
def test_rule_detects_orphans(source, found):
    assert orphans({"m": source}) == found


@pytest.mark.parametrize("sources, found", [
    # two modules define one name: a.run is called by b.run, b.run by no one
    ({"a": "def run(): pass\n", "b": "from . import a\ndef run():\n    return a.run()\n"},
     {"b.run"}),
    # a bare name of another module's definition needs a from-import
    ({"a": "def f(): pass\n", "b": "def f(): pass\nx = f()\n"}, {"a.f"}),
    ({"a": "def f(): pass\n", "b": "from .a import f as g\nx = g()\n"}, set()),
    ({"a": "def f(): pass\n", "b": "from posreal.a import f\nx = f()\n"}, set()),
    ({"a": "def f(): pass\n", "b": "import posreal.a as pa\nx = pa.f()\n"}, set()),
    ({"a": "def f(): pass\n", "b": "from posreal import a\nx = a.f\n"}, set()),
    # a module alias reaches only its own module's definition
    ({"a": "def f(): pass\n", "b": "def f(): pass\n", "c": "from . import a\nx = a.f()\n"},
     {"b.f"}),
    # a method counts every mention of its name
    ({"a": "class C:\n    def go(self): pass\n", "b": "x = thing.go()\n"}, {"a.C"}),
])
def test_rule_resolves_top_level_names_per_module(sources, found):
    assert orphans(sources) == found
