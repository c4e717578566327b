"""The public surface of ``nambu``: every top-level function and class of
``src/nambu`` and every method of such a class is reached by something other
than the tests, or ``ABSTRACT`` names the statement of the paper's abstract
it computes.  Anything else is to be deleted, not moved into the tests.

A definition is reached when its name occurs as an identifier (a ``Name``,
an ``Attribute`` or an imported name) in one of
- a module of ``src/nambu`` other than ``__init__.py``, the defining module
  included; re-exports do not count;
- a demo under ``demos/``;
- ``bench/workloads.py``, or an attribute path of ``TARGETS`` in
  ``bench/tracer.py``.
The bench files are parsed, never imported or changed.

The scan goes by name, not by binding: definitions that share a name (the
``apply`` methods of two classes, say) are reached together, and a name that
only an unreached definition uses still counts as reached.  Special methods
(``__eq__`` and the like) are reached through the language and are not
listed.
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


def identifiers(text):
    """The names a source text uses: ``Name`` ids, ``Attribute`` attributes
    and the last part of every imported name and alias."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
            if node.asname:
                out.add(node.asname)
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


def test_a_planted_definition_is_flagged(outside):
    """The scan itself: a function, a class and its method that nothing
    calls, added to every module, are what it reports in addition."""
    sources = src_sources()
    before = unreached(sources, outside)
    planted = []
    for module in sources:
        sources[module] += ("\n\ndef _planted_function():\n    pass\n"
                            "\n\nclass _Planted:\n    def planted_method(self):\n        pass\n")
        planted += [f"{module}._Planted", f"{module}._Planted.planted_method",
                    f"{module}._planted_function"]
    assert unreached(sources, outside) == sorted(before + planted)
