"""The public surface of ``nambu``: every top-level function and class of
``src/nambu`` and every method of such a class is reached by something other
than the tests, or ``ABSTRACT`` names the statement of the paper's abstract
it computes.  Anything else is to be deleted, not moved into the tests.

A definition is reached when its name occurs as an identifier (a ``Name``
load, an ``Attribute`` or an imported name) in one of
- a module of ``src/nambu`` other than ``__init__.py``, the defining module
  included; re-exports do not count;
- a demo under ``demos/``;
- ``bench/workloads.py``, or an attribute path of ``TARGETS`` in
  ``bench/tracer.py``.
The bench files are parsed, never imported or changed.

A ``Name`` load reaches nothing when an enclosing function, lambda or
comprehension binds that name itself (a parameter, an assignment, a loop,
``with`` or comprehension target): a local variable ``x`` keeps no function
``x`` alive.  Beyond that the scan goes by name, not by binding: definitions
that share a name (the ``apply`` methods of two classes, say) are reached
together, and a name that only an unreached definition uses still counts as
reached.  Special methods (``__eq__`` and the like) are reached through the
language and are not listed.
"""

import ast
from pathlib import Path

import pytest

import nambu

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nambu"

# name -> the statement of the abstract that keeps it
ABSTRACT = {
    "s_op": "structures given by multi-differential operators",
    "canonical_bracket": "structures given by multi-differential operators",
    "from_poisson_and_form": "structures given by multi-differential operators",
    "wedge_compat_check": "the wedge product of two n-Poisson structures",
    "comp_condition_k": "compatibility relations connecting hereditary structures",
}


def definitions(sources):
    """{name: [module.qualified name, …]} of the top-level functions and
    classes of ``sources`` ({module: text}) and the methods of the classes."""
    found = {}
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            found.setdefault(node.name, []).append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (sub.name.startswith("__") and sub.name.endswith("__"))):
                        found.setdefault(sub.name, []).append(
                            f"{module}.{node.name}.{sub.name}")
    return found


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def local_names(scope):
    """The names a function, lambda or comprehension binds itself: its
    parameters or comprehension targets; for a function also every name it
    stores (assignment, loop, ``with`` and walrus targets), its ``except``
    names and nested definitions.  The bindings of nested functions and
    comprehensions are theirs."""
    if isinstance(scope, COMPREHENSIONS):
        return {n.id for g in scope.generators for n in ast.walk(g.target)
                if isinstance(n, ast.Name)}
    a = scope.args
    names = {x.arg for x in [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg] if x}
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.comprehension):
            stack += [node.iter, *node.ifs]
        elif not isinstance(node, ast.Lambda):
            stack += ast.iter_child_nodes(node)
    return names


def outer_parts(scope):
    """The parts of a scope evaluated where it is defined: decorators,
    defaults and annotations, or a comprehension's first iterable."""
    if isinstance(scope, COMPREHENSIONS):
        return [scope.generators[0].iter]
    a = scope.args
    parts = [*a.defaults, *a.kw_defaults]
    if not isinstance(scope, ast.Lambda):
        parts += [*scope.decorator_list, scope.returns]
        parts += [x.annotation for x in [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs,
                                         a.kwarg] if x]
    return [part for part in parts if part]


def identifiers(text):
    """The names a source text uses: ``Attribute`` attributes, the last part
    of every imported name and alias, and the ids of ``Name`` loads that no
    enclosing function, lambda or comprehension binds itself."""
    out, done = set(), set()

    def visit(node, bound):
        if id(node) in done:
            return
        done.add(id(node))
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in bound:
                out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
            if node.asname:
                out.add(node.asname)
        elif isinstance(node, (*FUNCTIONS, *COMPREHENSIONS)):
            for part in outer_parts(node):
                visit(part, bound)
            bound = bound | local_names(node)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(ast.parse(text), frozenset())
    return out


def tracer_paths(text):
    """Every part of the attribute paths (the second field) of ``TARGETS``."""
    for node in ast.parse(text).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)):
            return {part for entry in node.value.elts
                    for part in entry.elts[1].value.split(".")}
    raise AssertionError("bench/tracer.py has no TARGETS list")


def outside_reach():
    """The identifiers of the demos, ``bench/workloads.py`` and ``TARGETS``."""
    names = tracer_paths((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    for path in [*sorted((ROOT / "demos").glob("*.py")), ROOT / "bench" / "workloads.py"]:
        names |= identifiers(path.read_text(encoding="utf-8"))
    return names


def src_sources():
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def reached(sources, outside):
    """``outside`` and the identifiers of ``sources`` but ``__init__``."""
    return outside.union(*(identifiers(text) for module, text in sources.items()
                           if module != "__init__"))


def unreached(sources, outside):
    """The qualified definitions of ``sources`` that nothing reaches and
    ``ABSTRACT`` does not name."""
    seen = reached(sources, outside)
    return sorted(q for name, qs in definitions(sources).items()
                  if name not in seen and name not in ABSTRACT for q in qs)


@pytest.fixture(scope="module")
def outside():
    return outside_reach()


def test_every_definition_is_reached(outside):
    assert unreached(src_sources(), outside) == []


def test_abstract_names_are_defined_and_otherwise_unreached(outside):
    """An entry of ``ABSTRACT`` that a module, demo or bench file reaches, or
    that names nothing, is stale."""
    sources = src_sources()
    assert sorted(set(ABSTRACT) - set(definitions(sources))) == []
    assert sorted(set(ABSTRACT) & reached(sources, outside)) == []


def test_exports_are_defined():
    assert [name for name in nambu.__all__ if not hasattr(nambu, name)] == []
    assert len(set(nambu.__all__)) == len(nambu.__all__)


# a function, a class and its method that nothing calls; functions named
# like the locals of the planted function, one for each kind of binding; and
# two that it reaches, from its default and from its body
PLANTED = """

def _planted_function(_planted_param=_planted_default):
    _planted_assigned = [_planted_comp for _planted_comp in _planted_param]
    for _planted_loop in _planted_assigned:
        with _planted_loop as _planted_with:
            _planted_reached(_planted_with)
    return lambda _planted_lambda: (_planted_param, _planted_assigned, _planted_lambda)


class _Planted:
    def planted_method(self):
        pass
"""
SHADOWED = ["_planted_assigned", "_planted_comp", "_planted_lambda", "_planted_loop",
            "_planted_param", "_planted_with"]


def test_a_planted_definition_is_flagged(outside):
    """The scan itself: what ``PLANTED`` adds to every module is reported,
    the functions that share a name with its locals included, and the two
    functions it reaches are not."""
    sources = src_sources()
    before = unreached(sources, outside)
    planted = []
    for module in sources:
        sources[module] += PLANTED + "".join(
            f"\n\ndef {name}():\n    pass\n"
            for name in [*SHADOWED, "_planted_default", "_planted_reached"])
        planted += [f"{module}.{name}" for name in
                    ["_Planted", "_Planted.planted_method", "_planted_function", *SHADOWED]]
    assert unreached(sources, outside) == sorted(before + planted)
