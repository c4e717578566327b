"""End-to-end exercises of the command-line frontend: every verb, the
exit-code contract (0 verdict-true, 1 verdict-false, 2 input error) and the
JSON output mode."""

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (compat_oracle, derivation_oracle, fi_search_oracle,
                      fraction_jacobi_walk, jacobi_oracle, primes_between,
                      rand_invertible_matrix)
from nambu import bianchi, cli, dynamics, multivector, njacobi, npoisson, poly
from nambu.cli import main
from nambu.bianchi import MAX_ENTRIES, algebra_from_form
from nambu.multivector import MultiVector, multivector_from_json, multivector_to_json
from nambu.nlie import MAX_WORK, nlie_from_json, nlie_to_json, vector_product_algebra
from nambu.poly import Poly

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
GOLDEN = Path(__file__).resolve().parent / "data"
# a child ``python -m nambu.cli`` imports the package from this checkout
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out), err


class TestCheckNlie:
    def test_valid_algebra(self, capsys):
        code, out, _ = run(capsys, "check-nlie", str(DATA / "vector_product_3.json"))
        assert code == 0
        assert "verdict: True" in out

    def test_json_output(self, capsys):
        code, data, _ = run_json(capsys, "check-nlie", str(DATA / "atomic_3lie.json"))
        assert code == 0
        assert data == {"verdict": True, "witness": None}

    def test_broken_algebra(self, capsys, tmp_path):
        with open(DATA / "vector_product_3.json") as fh:
            raw = json.load(fh)
        raw["constants"][0]["value"] = ["1", "0", "0", "1"]
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(raw))
        code, data, _ = run_json(capsys, "check-nlie", str(bad))
        assert code == 1
        assert data["verdict"] is False
        assert data["witness"]["u_indices"]  # 1-based witness indices present
        assert min(data["witness"]["u_indices"]) >= 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check-nlie", str(DATA / "no_such.json"))
        assert code == 2
        assert "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "check-nlie", str(bad))
        assert code == 2
        assert "malformed JSON" in err

    @pytest.mark.parametrize("dim", [-1, 0])
    def test_non_positive_dimension(self, capsys, tmp_path, dim):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": dim, "arity": 2}))
        code, out, err = run(capsys, "check-nlie", str(bad))
        assert code == 2 and not out
        assert "dimension must be at least 1" in err

    @pytest.mark.parametrize("verb, extra, count", [
        ("check-nlie", [], comb(30, 14) * comb(30, 15)),
        ("compat", [], comb(30, 14) * comb(30, 15)),
        ("classify", [], None),
        ("hereditary", ["--freeze", ",".join(["1"] * 30)], comb(30, 14)),
    ], ids=["check-nlie", "compat", "classify", "hereditary"])
    def test_work_bound(self, capsys, tmp_path, verb, extra, count):
        """C(30,14)·C(30,15) tuple pairs, or C(30,14) brackets for one frozen
        vector, are refused before any work, even for the zero structure;
        classify decides α∧dα = 0 on the generating form, which exists only
        in dimension arity + 1, so it refuses the shape at once."""
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"dim": 30, "arity": 15}))
        start = time.perf_counter()
        code, out, err = run(capsys, verb, *[str(big)] * (2 if verb == "compat" else 1),
                             *extra)
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert "--freeze" not in err
        if count is None:
            assert "dimension must equal arity + 1" in err
        else:
            assert str(count) in err
            assert count > MAX_WORK

    def test_work_bound_counts_constants(self, capsys, tmp_path):
        """A structure on 31 dimensions from a 30-ary form whose skew part has
        rank 4, behind a random basis, fails α∧dα = 0.  Its witness search
        needs only 14,415 (u, w) tuple pairs, but each pair costs arity × its
        961 nonzero constants: refused at once.  The hidden 30-ary vector
        product in the same basis is true at once, by the criterion."""
        rng = random.Random(30)
        c = [[rng.randint(-2, 2) for _ in range(31)] for _ in range(31)]
        form = [[Fraction(int(i == j)) for j in range(31)] for i in range(31)]
        for i, j in ((0, 1), (2, 3)):
            form[i][j], form[j][i] = Fraction(-1, 2), Fraction(1, 2)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(nlie_to_json(algebra_from_form(form, 30).change_basis(c))))
        hidden = tmp_path / "hidden.json"
        hidden.write_text(json.dumps(nlie_to_json(vector_product_algebra(30).change_basis(c))))
        start = time.perf_counter()
        code, out, err = run(capsys, "check-nlie", str(broken))
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert "14415 (u, w) basis tuple pairs with 961 nonzero" in err
        start = time.perf_counter()
        code, data, _ = run_json(capsys, "check-nlie", str(hidden))
        assert time.perf_counter() - start < 1
        assert code == 0 and data == {"verdict": True, "witness": None}


BLADE = multivector_to_json(MultiVector.basis(24, tuple(range(12))))
HUGE = {"num_vars": 10**9, "degree": 2, "components": []}


@pytest.mark.parametrize("argv, doc, count", [
    (["check-poisson"], BLADE, comb(24, 11)),
    (["check-poisson"], multivector_to_json(MultiVector.basis(24, tuple(range(12)))
                                            + MultiVector.basis(24, tuple(range(12, 24)))),
     comb(24, 11)),
    (["check-jacobi"], {"nabla": BLADE, "box": {"num_vars": 24, "degree": 11}},
     comb(25, 11)),
    (["derivations"], {"dim": 41, "arity": 40}, 41**4),
    (["check-poisson"], HUGE, 10**9),
    (["check-jacobi"], {"nabla": HUGE, "box": {**HUGE, "degree": 1}}, 10**9),
    (["integrate", "--x0", "0", "--system"], {"tensor": HUGE, "hamiltonians": [[]]}, 10**9),
], ids=["blade", "two-blades", "blade-and-zero", "derivations-dim-41",
        "poisson-num-vars", "jacobi-num-vars", "integrate-num-vars"])
def test_walk_sized_before_any_work(capsys, tmp_path, monkeypatch, argv, doc, count):
    """A constant 12-blade in 24 variables has C(24, 11) coordinate defects
    and decomposability wedges, and with the complementary blade as many
    wedges; as the pair (blade, 0) it has C(25, 11) n-Jacobi slot tuples.
    The zero structure of dimension 41 has up to 41⁴ derivation entries, and
    10⁹ variables would size every exponent tuple.  Each is refused from its
    count before the first step, with the count in the message."""
    for owner, name in ((npoisson, "fi_defect"), (njacobi, "jacobi_defects"),
                        (MultiVector, "wedge")):
        monkeypatch.setattr(owner, name, lambda *a, name=name: pytest.fail(f"{name} called"))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f" {count} " in err and "above the limit" in err


@pytest.mark.parametrize("argv, name, path", [
    (["check-nlie"], "atomic_3lie.json", ("constants", 0, "value", 0)),
    (["compat", str(DATA / "atomic_3lie.json")], "atomic_3lie.json",
     ("constants", 0, "value", 0)),
    (["check-poisson"], "atomic_tensor.json", ("components", 0, "poly", 0, "coef")),
    (["check-jacobi"], "jacobi_pair.json", ("nabla", "components", 0, "poly", 0, "coef")),
    (["integrate", "--x0", "1,0", "--steps", "2", "--system"], "oscillator_system.json",
     ("hamiltonians", 0, 0, "coef")),
], ids=["check-nlie", "compat", "check-poisson", "check-jacobi", "integrate"])
def test_zero_denominator_is_input_error(capsys, tmp_path, argv, name, path):
    """A "1/0" rational in an input file exits 2 with a message, not a traceback."""
    bad = write_altered(tmp_path, name, path, "1/0")
    code, out, err = run(capsys, *argv, str(bad))
    assert code == 2 and not out
    assert err.startswith("error:") and "Fraction(1, 0)" in err


@pytest.mark.parametrize("argv, name, path", [
    (["check-poisson"], "atomic_tensor.json", ("components", 0, "poly", 0, "exps", 2)),
    (["check-jacobi"], "jacobi_pair.json",
     ("nabla", "components", 0, "poly", 0, "exps", 2)),
    (["integrate", "--x0", "1,0", "--steps", "2", "--system"], "oscillator_system.json",
     ("hamiltonians", 0, 0, "exps", 1)),
], ids=["check-poisson", "check-jacobi", "integrate"])
def test_negative_exponent_is_input_error(capsys, tmp_path, argv, name, path):
    """Polynomials in input files have non-negative exponents: -1 exits 2."""
    bad = write_altered(tmp_path, name, path, -1)
    code, out, err = run(capsys, *argv, str(bad))
    assert code == 2 and not out
    assert err.startswith("error:") and "negative exponent" in err


INTEGRATE_SYSTEM = ["integrate", "--x0", "1,0", "--steps", "2", "--system"]


@pytest.mark.parametrize("token", ["1e400", "2.5", "1.5", '"2"', "true"])
@pytest.mark.parametrize("argv, name, path", [
    (INTEGRATE_SYSTEM, "oscillator_system.json", ("hamiltonians", 0, 0, "exps", 1)),
    (INTEGRATE_SYSTEM, "oscillator_system.json", ("tensor", "num_vars")),
    (INTEGRATE_SYSTEM, "oscillator_system.json", ("tensor", "degree")),
    (INTEGRATE_SYSTEM, "oscillator_system.json", ("tensor", "components", 0, "indices", 1)),
    (["check-nlie"], "atomic_3lie.json", ("dim",)),
    (["check-nlie"], "atomic_3lie.json", ("arity",)),
    (["check-nlie"], "atomic_3lie.json", ("constants", 0, "indices", 2)),
], ids=["integrate-exps", "integrate-num_vars", "integrate-degree", "integrate-indices",
        "check-nlie-dim", "check-nlie-arity", "check-nlie-indices"])
def test_non_integer_field_is_input_error(capsys, tmp_path, argv, name, path, token):
    """Integer fields must be JSON integers: a float that overflows, one that
    would be truncated, a string or a boolean exits 2 with a message."""
    bad = write_altered(tmp_path, name, path, "@token@")
    bad.write_text(bad.read_text().replace('"@token@"', token))
    code, out, err = run(capsys, *argv, str(bad))
    assert code == 2 and not out
    assert err.startswith("error:") and "expected an integer" in err


@pytest.mark.parametrize("argv, name, path, value", [
    (["check-nlie"], "atomic_3lie.json", ("constants", 0, "value"), "0001"),
    (["classify"], "atomic_3lie.json", ("constants", 0, "value"), "0001"),
    (["classify"], "atomic_3lie.json", ("constants", 0, "value"),
     {"0": 1, "1": 1, "2": 0, "3": 0}),
    (["classify"], "atomic_3lie.json", ("constants", 0, "value", 0), 0.1),
    (["check-nlie"], "atomic_3lie.json", ("constants", 0, "value", 3), True),
    (["check-poisson"], "atomic_tensor.json", ("components", 0, "poly", 0, "coef"), 0.5),
    (["check-jacobi"], "jacobi_pair.json", ("nabla", "components", 0, "poly", 0, "coef"),
     2.0),
    (INTEGRATE_SYSTEM, "oscillator_system.json", ("hamiltonians", 0, 0, "coef"), 0.5),
], ids=["check-nlie-string-value", "classify-string-value", "classify-dict-value",
        "classify-float-entry", "check-nlie-bool-entry", "check-poisson-float-coef",
        "check-jacobi-float-coef", "integrate-float-coef"])
def test_malformed_rational_field_is_input_error(capsys, tmp_path, argv, name, path, value):
    """A ``value`` is a JSON list, and each rational (``value`` entry,
    ``coef``) a JSON string or integer: a string read character by
    character, a dict read by its keys, a float read through its binary
    expansion or a bool exits 2."""
    bad = write_altered(tmp_path, name, path, value)
    code, out, err = run(capsys, *argv, str(bad))
    assert code == 2 and not out
    assert err.startswith(f"error: {bad}: ") and "expected a " in err


TERM = [{"coef": "1", "exps": [0, 0, 0, 1]}]
# the exit code, stdout and stderr of the one-pass loaders on malformed
# files are those of reading every field and then building the object
MALFORMED_FILES = [
    ("bool-exponent", ["check-poisson"], "atomic_tensor.json",
     ("components", 0, "poly", 0, "exps", 0), True, {},
     "multivector data: expected an integer, got True"),
    ("float-coef", ["check-poisson"], "atomic_tensor.json",
     ("components", 0, "poly", 0, "coef"), 0.5, {},
     "multivector data: expected a rational as a string or integer, got 0.5"),
    ("negative-exponent", ["check-poisson"], "atomic_tensor.json",
     ("components", 0, "poly", 0, "exps", 2), -1, {},
     "multivector data: negative exponent in [0, 0, -1, 1]"),
    ("exponent-length", ["check-poisson"], "atomic_tensor.json",
     ("components", 0, "poly", 0, "exps"), [0, 1], {},
     "multivector data: exponent tuple (0, 1) has length 2, expected 4"),
    ("value-not-list", ["check-nlie"], "atomic_3lie.json",
     ("constants", 0, "value"), 5, {}, "algebra data: expected a list of rationals, got 5"),
    ("value-length", ["check-nlie"], "atomic_3lie.json",
     ("constants", 0, "value"), ["1", "2"], {}, "algebra data: vector has length 2, expected 4"),
    ("nlie-out-of-range", ["check-nlie"], "atomic_3lie.json",
     ("constants", 0, "indices"), [1, 2, 5], {},
     "algebra data: constant key (0, 1, 4) out of range"),
    ("nlie-unsorted", ["check-nlie"], "atomic_3lie.json",
     ("constants", 0, "indices"), [2, 1, 3], {},
     "algebra data: constant key (1, 0, 2) must be a strictly increasing 3-tuple"),
    ("nlie-indices-length", ["check-nlie"], "atomic_3lie.json",
     ("constants", 0, "indices"), [1, 2], {},
     "algebra data: constant key (0, 1) must be a strictly increasing 3-tuple"),
    ("tensor-out-of-range", ["check-poisson"], "atomic_tensor.json",
     ("components", 0, "indices"), [1, 2, 5], {},
     "multivector data: index tuple (0, 1, 4) out of range"),
    ("tensor-unsorted", ["check-poisson"], "atomic_tensor.json",
     ("components", 0, "indices"), [1, 3, 2], {},
     "multivector data: index tuple (0, 2, 1) must be strictly increasing"),
    ("tensor-indices-length", ["check-poisson"], "atomic_tensor.json",
     ("components", 0, "indices"), [1, 2], {},
     "multivector data: index tuple (0, 1) has wrong length for degree 3"),
    ("degree-above-num-vars", ["check-poisson"], "atomic_tensor.json", ("degree",), 5, {},
     "multivector data: degree 5 out of range for 4 variables"),
    # of several faults, a field read later comes before a check of the object
    ("length-then-float-coef", ["check-poisson"], "atomic_tensor.json",
     ("components", 0, "poly"), [{"coef": "1", "exps": [0, 1]},
                                 {"coef": 0.5, "exps": [0, 0, 0, 1]}], {},
     "multivector data: expected a rational as a string or integer, got 0.5"),
    ("range-then-bool-exponent", ["check-poisson"], "atomic_tensor.json", ("components",),
     [{"indices": [1, 2, 9], "poly": TERM},
      {"indices": [1, 2, 4], "poly": [{"coef": "1", "exps": [0, False, 0, 1]}]}], {},
     "multivector data: expected an integer, got False"),
    ("degree-then-float-coef", ["check-poisson"], "atomic_tensor.json", ("components",),
     [{"indices": [1, 2, 3], "poly": TERM},
      {"indices": [1, 2, 4], "poly": [{"coef": 1.0, "exps": [0, 0, 0, 1]}]}], {"degree": 9},
     "multivector data: expected a rational as a string or integer, got 1.0"),
    ("range-then-value-not-list", ["check-nlie"], "atomic_3lie.json", ("constants",),
     [{"indices": [1, 2, 9], "value": ["1", "0", "0", "0"]},
      {"indices": [1, 2, 4], "value": "1000"}], {},
     "algebra data: expected a list of rationals, got '1000'"),
    ("dim-then-float-entry", ["check-nlie"], "atomic_3lie.json",
     ("constants", 0, "value", 1), 0.25, {"dim": 0},
     "algebra data: expected a rational as a string or integer, got 0.25"),
]


@pytest.mark.parametrize("argv, name, path, value, top, message",
                         [case[1:] for case in MALFORMED_FILES],
                         ids=[case[0] for case in MALFORMED_FILES])
def test_malformed_file_messages_are_kept(capsys, tmp_path, argv, name, path, value, top,
                                          message):
    bad = write_altered(tmp_path, name, path, value, top)
    assert run(capsys, *argv, str(bad)) == (2, "", f"error: {bad}: invalid {message}\n")


@pytest.mark.parametrize("argv, name, path, out", [
    (["check-poisson"], "atomic_tensor.json", ("components", 0, "poly"),
     "verdict: True\nwitness: None\ndecomposable: True\nrank_at_origin: 0\n"),
    (["check-jacobi"], "jacobi_pair.json", ("nabla", "components", 0, "poly"),
     "verdict: True\nwitness: None\nbox_poisson: True\nnabla_decomposable: True\n"),
], ids=["check-poisson", "check-jacobi"])
def test_exponents_that_cancel_leave_a_zero_component(capsys, tmp_path, argv, name, path,
                                                      out):
    """Terms on one exponent tuple are summed: "1/2" and "-1/2" on the only
    component leave the zero multivector, which is decided, not refused."""
    terms = [{"coef": c, "exps": [0, 0, 0, 1]} for c in ("1/2", "-1/2")]
    bad = write_altered(tmp_path, name, path, terms)
    assert run(capsys, *argv, str(bad)) == (0, out, "")


@pytest.mark.parametrize("argv, name, path, what, listed", [
    (["check-poisson"], "atomic_tensor.json", ("components",), "multivector data",
     "[1, 2, 3]"),
    (["check-jacobi"], "jacobi_pair.json", ("nabla", "components"), "operator pair",
     "[1, 2, 3]"),
    (INTEGRATE_SYSTEM, "oscillator_system.json", ("tensor", "components"), "system file",
     "[1, 2]"),
    (["check-nlie"], "atomic_3lie.json", ("constants",), "algebra data", "[1, 2, 3]"),
    (["hereditary", "--freeze", "1,0,0,0"], "vector_product_3.json", ("constants",),
     "algebra data", "[1, 2, 3]"),
], ids=["check-poisson", "check-jacobi", "integrate", "check-nlie", "hereditary"])
def test_repeated_index_tuple_is_input_error(capsys, tmp_path, argv, name, path, what,
                                             listed):
    """An index tuple that a file lists twice exits 2 and is named as the
    file writes it; it used to be decided on the last entry alone, so a
    zero vector listed second erased a bracket."""
    entries = json.loads((DATA / name).read_text())
    for key in path:
        entries = entries[key]
    again = dict(entries[0])
    if "value" in again:
        again["value"] = ["0"] * len(again["value"])
    bad = write_altered(tmp_path, name, path, [*entries, again])
    assert run(capsys, *argv, str(bad)) == (
        2, "", f"error: {bad}: invalid {what}: index tuple {listed} is listed twice\n")


FILE_VERBS = {
    "check-nlie": ["check-nlie", "@"],
    "classify": ["classify", "@"],
    "derivations": ["derivations", "@"],
    "compat-first": ["compat", "@", str(DATA / "atomic_3lie.json")],
    "compat-second": ["compat", str(DATA / "atomic_3lie.json"), "@"],
    "hereditary": ["hereditary", "@", "--freeze", "0,0,0,1"],
    "check-poisson": ["check-poisson", "@", "--max-degree", "1"],
    "check-jacobi": ["check-jacobi", "@"],
    "integrate": [*INTEGRATE_SYSTEM, "@"],
}


@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),
    ('{"dim": 4, "name": "\xe9"}'.encode("latin-1"), "not UTF-8 at byte 20"),
    (b"{not json", "malformed JSON at line 1, column 2"),
    (b"[" * 100_000, "JSON nested too deeply"),
    (b"{}", "invalid "),
], ids=["missing", "not-utf8", "not-json", "nested", "not-parseable"])
@pytest.mark.parametrize("verb", sorted(FILE_VERBS))
def test_load_failure_names_the_file(capsys, tmp_path, verb, content, message):
    """Every file-reading verb exits 2 and names the file, whatever is wrong
    with it; a file that is not UTF-8 once escaped ``integrate --system`` as
    a traceback."""
    bad = tmp_path / "input.json"
    if content is not None:
        bad.write_bytes(content)
    code, out, err = run(capsys, *[str(bad) if a == "@" else a for a in FILE_VERBS[verb]])
    assert code == 2 and not out
    assert err.startswith("error: ") and str(bad) in err and message in err


def write_altered(tmp_path, name, path, value, top=None):
    """A copy of the demo file ``name`` with the entry at ``path`` set to
    ``value`` and the top-level fields of ``top`` set."""
    data = json.loads((DATA / name).read_text())
    data.update(top or {})
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    bad = tmp_path / name
    bad.write_text(json.dumps(data))
    return bad


def sum_of_blades():
    return MultiVector.basis(6, (0, 1, 2)) + MultiVector.basis(6, (3, 4, 5))


def non_integrable_blade():
    """(∂₁ + x₂∂₄)∧∂₂∧∂₃: decomposable, but [∂₂, ∂₁ + x₂∂₄] = ∂₄ leaves its
    distribution, so it is not 3-Poisson."""
    first = MultiVector.basis(4, (0,)) + MultiVector.basis(4, (3,), Poly.var(4, 1))
    return first.wedge(MultiVector.basis(4, (1,))).wedge(MultiVector.basis(4, (2,)))


class TestCheckPoisson:
    def test_valid_tensor_with_casimirs(self, capsys):
        code, data, _ = run_json(capsys, "check-poisson",
                                 str(DATA / "atomic_tensor.json"),
                                 "--max-degree", "1")
        assert code == 0
        assert data["verdict"] is True
        assert data["decomposable"] is True
        assert data["casimirs"] == ["1", "x4"]

    def test_failing_tensor_reports_witness(self, capsys):
        code, data, _ = run_json(capsys, "check-poisson",
                                 str(DATA / "sum_of_blades.json"))
        assert code == 1
        assert data["verdict"] is False
        assert data["witness"] == ["x1", "x2 x4"]
        assert data["decomposable"] is False

    def test_true_verdict_implies_decomposable(self, capsys, tmp_path,
                                               monkeypatch):
        # x4·∂1∧∂2∧∂3 on 5 coordinates: the verdict has already run the test
        calls = []
        real = npoisson.is_decomposable
        def counting(v):
            calls.append(v)
            return real(v)
        monkeypatch.setattr(npoisson, "is_decomposable", counting)
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(multivector_to_json(
            MultiVector.basis(5, (0, 1, 2), Poly.var(5, 3)))))
        code, data, _ = run_json(capsys, "check-poisson", str(path))
        assert code == 0
        assert data["decomposable"] is True
        assert len(calls) == 1

    @pytest.mark.parametrize("decomposable", [False, True])
    def test_false_verdict_walks_once(self, capsys, tmp_path, monkeypatch, decomposable):
        """A false verdict on a 3-vector reports the decomposability that the
        decider found, without testing it again: ∂₁∧∂₂∧∂₃ + ∂₄∧∂₅∧∂₆, and the
        decomposable (∂₁ + x₂∂₄)∧∂₂∧∂₃, whose distribution is not integrable."""
        calls = []
        real = npoisson.is_decomposable
        monkeypatch.setattr(npoisson, "is_decomposable", lambda v: calls.append(v) or real(v))
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(multivector_to_json(
            non_integrable_blade() if decomposable else sum_of_blades())))
        code, data, _ = run_json(capsys, "check-poisson", str(path))
        assert (code, data["verdict"], data["decomposable"]) == (1, False, decomposable)
        assert len(calls) == 1

    def test_poisson_bivector_still_tested(self, capsys, tmp_path):
        # ∂1∧∂2 + ∂3∧∂4 is Poisson but not decomposable
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(multivector_to_json(
            MultiVector.basis(4, (0, 1)) + MultiVector.basis(4, (2, 3)))))
        code, data, _ = run_json(capsys, "check-poisson", str(path))
        assert code == 0
        assert data["decomposable"] is False

    def test_negative_max_degree_is_input_error(self, capsys):
        code, out, err = run(capsys, "check-poisson", "--max-degree", "-1",
                             str(GOLDEN / "fractional_casimirs.json"))
        assert (code, out) == (2, "")
        assert err == "error: --max-degree must be ≥ 0, got -1\n"

    def test_high_degree_casimirs(self, capsys):
        """Degree ≤ 8 on 4 variables: 495 unknowns × 6 Hamiltonian fields,
        within the work bound; the Casimirs are the 9 powers of one linear
        invariant, each annihilated by every coordinate Hamiltonian field."""
        path = GOLDEN / "fractional_casimirs.json"
        code, data, _ = run_json(capsys, "check-poisson", str(path), "--max-degree", "8")
        assert code == 0
        assert comb(4 + 8, 8) * comb(4, 2) <= npoisson.MAX_CASIMIR_WORK
        casimirs = [Poly.parse(c, 4) for c in data["casimirs"]]
        assert len(casimirs) == 9
        assert sorted(max(map(sum, c.terms)) for c in casimirs) == list(range(9))
        v = multivector_from_json(json.loads(path.read_text()))
        xs = Poly.variables(4)
        for i, j in itertools.combinations(range(4), 2):
            field = v.hamiltonian_field([xs[i], xs[j]])
            assert all(field.apply([c]).is_zero() for c in casimirs)

    @pytest.mark.parametrize("name, m", [("fractional_casimirs", 4), ("nonintegrable", 5)])
    def test_casimir_work_bound(self, capsys, name, m):
        """C(m+60, 60) unknowns × C(m, 2) fields are refused before any work,
        whatever the verdict would be."""
        start = time.perf_counter()
        code, out, err = run(capsys, "check-poisson", str(GOLDEN / f"{name}.json"),
                             "--max-degree", "60")
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        unknowns, fields = comb(m + 60, 60), comb(m, 2)
        assert unknowns * fields > npoisson.MAX_CASIMIR_WORK
        assert (f"{unknowns} unknowns × {fields} Hamiltonian fields, "
                f"work {unknowns * fields}") in err

    def test_vector_field_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "field.json"
        path.write_text(json.dumps(multivector_to_json(
            MultiVector.basis(2, (0,)))))
        code, _, err = run(capsys, "check-poisson", str(path))
        assert code == 2 and "degree" in err

    @pytest.mark.parametrize("name", ["fractional_casimirs", "nonintegrable"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_output_matches_golden(self, capsys, name, as_json):
        # f·(2∂1 − ∂4)∧(∂2 + 3∂4)∧∂3 has Casimirs in x1 − 6x2 + 2x4 with
        # non-integral coefficients; ½(x5² + ¾)∂1∧∂2∧(∂3 + ⅔x1∂4) is
        # decomposable but not integrable, so it fails with a witness
        argv = ["--json"] if as_json else []
        code, out, _ = run(capsys, *argv, "check-poisson", str(GOLDEN / f"{name}.json"),
                           "--max-degree", "2")
        assert code == (0 if name == "fractional_casimirs" else 1)
        suffix = "json" if as_json else "txt"
        assert out == (GOLDEN / f"check_poisson_{name}.{suffix}").read_text()


class TestCheckJacobi:
    def test_valid_pair(self, capsys):
        code, data, _ = run_json(capsys, "check-jacobi",
                                 str(DATA / "jacobi_pair.json"))
        assert code == 0
        assert data["verdict"] is True
        assert data["box_poisson"] is True
        assert data["nabla_decomposable"] is True

    def test_invalid_pair(self, capsys):
        code, data, _ = run_json(capsys, "check-jacobi",
                                 str(DATA / "jacobi_pair_bad.json"))
        assert code == 1
        assert data["verdict"] is False
        assert data["witness"] is not None

    def write_pair(self, tmp_path, nabla, box):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(njacobi.jacobiop_to_json(njacobi.JacobiOp(nabla, box))))
        return str(path)

    def test_sum_of_blades_pair_is_false(self, capsys, tmp_path):
        """(∂₁∧∂₂∧∂₃ + ∂₄∧∂₅∧∂₆, 0) passes every tuple of {1, x₁,…,x₆}, but its
        top part is not decomposable: false, with the top part's witness."""
        path = self.write_pair(tmp_path, MultiVector.basis(6, (0, 1, 2))
                               + MultiVector.basis(6, (3, 4, 5)), MultiVector.zero(6, 2))
        code, data, _ = run_json(capsys, "check-jacobi", path)
        assert code == 1
        assert data == {"verdict": False, "witness": ["x1", "x2 x4"], "box_poisson": True,
                        "nabla_decomposable": False}

    @pytest.mark.parametrize("decomposable", [False, True])
    def test_false_verdict_walks_once(self, capsys, tmp_path, monkeypatch, decomposable):
        """As for ``check-poisson``: (∇, 0) with the two 3-vectors there."""
        calls = []
        real = npoisson.is_decomposable
        monkeypatch.setattr(npoisson, "is_decomposable", lambda v: calls.append(v) or real(v))
        nabla = non_integrable_blade() if decomposable else sum_of_blades()
        path = self.write_pair(tmp_path, nabla, MultiVector.zero(nabla.num_vars, 2))
        code, data, _ = run_json(capsys, "check-jacobi", path)
        assert (code, data["verdict"], data["nabla_decomposable"]) == (1, False, decomposable)
        assert len(calls) == 1

    def test_true_verdict_implies_decomposable(self, capsys, tmp_path, monkeypatch):
        """x4·∂₁∧∂₂∧∂₃ + s(∂₁∧∂₂) on 5 coordinates: the decider has walked the
        decomposability wedges once, and the report does not walk them again."""
        calls = []
        real = multivector.wedge_walk
        monkeypatch.setattr(multivector, "wedge_walk", lambda v: calls.append(v) or real(v))
        path = self.write_pair(tmp_path, MultiVector.basis(5, (0, 1, 2), Poly.var(5, 3)),
                               MultiVector.basis(5, (0, 1)))
        code, data, _ = run_json(capsys, "check-jacobi", path)
        assert code == 0 and data["nabla_decomposable"] is True
        assert len(calls) == 1

    def test_box_of_two_blades_is_not_poisson(self, capsys, tmp_path):
        """(0, ∂₁∧∂₂∧∂₃ + ∂₄∧∂₅∧∂₆) of arity 4 fails at (x1, x2, x3), and its □
        is decided apart: not 3-Poisson, failing at (x1, x2·x4)."""
        path = self.write_pair(tmp_path, MultiVector.zero(6, 4), sum_of_blades())
        code, data, _ = run_json(capsys, "check-jacobi", path)
        assert code == 1
        assert data == {"verdict": False, "witness": ["x1", "x2", "x3"], "box_poisson": False,
                        "nabla_decomposable": True}

    def test_box_poisson_decided_after_a_false_verdict_only(self, capsys, tmp_path,
                                                            monkeypatch):
        """(0, ∂₁∧∂₂ + x₁·∂₃∧∂₄) fails, and ``is_n_poisson`` decides its □ once:
        not Poisson.  The true (∂₁∧…∧∂₄, ∂₁∧∂₂∧∂₃) in 5 variables never calls it."""
        calls = []
        real = npoisson.is_n_poisson
        monkeypatch.setattr(npoisson, "is_n_poisson", lambda v: calls.append(v) or real(v))
        box = MultiVector.basis(4, (0, 1)) + MultiVector.basis(4, (2, 3), Poly.var(4, 0))
        code, data, _ = run_json(capsys, "check-jacobi",
                                 self.write_pair(tmp_path, MultiVector.zero(4, 3), box))
        assert (code, data["verdict"], data["box_poisson"]) == (1, False, False)
        assert calls == [box]
        calls.clear()
        code, data, _ = run_json(capsys, "check-jacobi", self.write_pair(
            tmp_path, MultiVector.basis(5, (0, 1, 2, 3)), MultiVector.basis(5, (0, 1, 2))))
        assert (code, data["box_poisson"], calls) == (0, True, [])

    def test_witness_walk_refused(self, capsys, tmp_path):
        """(∂₁∧…∧∂₄ + ∂₅∧…∧∂₈, 0) passes its 84 slot tuples, and its top part
        is not decomposable; the C(45, 3) tuples of its witness walk exceed
        the limit, so it is refused rather than decided on the slot tuples."""
        path = self.write_pair(tmp_path, MultiVector.basis(8, (0, 1, 2, 3))
                               + MultiVector.basis(8, (4, 5, 6, 7)), MultiVector.zero(8, 3))
        code, out, err = run(capsys, "check-jacobi", path)
        assert (code, out) == (2, "")
        assert "slot monomial tuples: C(45, 3) = 14190 tuples" in err and "above the limit" in err

    @pytest.mark.parametrize("name", ["gradient_extension", "rational_pair"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_output_matches_golden(self, capsys, name, as_json):
        # ∇ + s(∇_h) with quadratic rational f and h is n-Jacobi; the
        # arbitrary rational pair is not
        argv = ["--json"] if as_json else []
        code, out, _ = run(capsys, *argv, "check-jacobi", str(GOLDEN / f"{name}.json"))
        assert code == (0 if name == "gradient_extension" else 1)
        suffix = "json" if as_json else "txt"
        assert out == (GOLDEN / f"check_jacobi_{name}.{suffix}").read_text()


@pytest.mark.parametrize("verb, nabla, box", [
    ("check-poisson", MultiVector.basis(4, (0, 1)) + MultiVector.basis(4, (2, 3)), None),
    ("check-poisson", MultiVector.basis(4, (0, 1), Poly.var(4, 2)), None),
    ("check-jacobi", MultiVector.basis(4, (0, 1)) + MultiVector.basis(4, (2, 3)),
     MultiVector.basis(4, (0,))),
    ("check-jacobi", MultiVector.zero(6, 4), sum_of_blades()),
], ids=["planes", "plane", "pair-planes", "pair-box-blades"])
def test_decomposability_tested_once_per_tensor(capsys, tmp_path, monkeypatch,
                                                verb, nabla, box):
    """The decomposability that ``check-poisson`` and ``check-jacobi`` print
    comes off the verdict, bivectors included, and a false n-Jacobi verdict
    tests □ apart: no tensor is tested twice (3-vectors: the ``walks_once``
    tests)."""
    calls = []
    real = npoisson.is_decomposable
    monkeypatch.setattr(npoisson, "is_decomposable", lambda v: calls.append(v) or real(v))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(multivector_to_json(nabla) if box is None
                               else njacobi.jacobiop_to_json(njacobi.JacobiOp(nabla, box))))
    code, data, _ = run_json(capsys, verb, str(path))
    assert code in (0, 1)
    assert len(calls) <= (1 if box is None else 2)
    assert all(a != b for a, b in itertools.combinations(calls, 2))


def prime_denominators(seed, count):
    """``count`` distinct primes between 10⁵ and 10⁶, in a seeded order."""
    rng = random.Random(seed)
    primes = []
    while len(primes) < count:
        p = rng.randrange(10**5, 10**6)
        if p not in primes and all(p % d for d in range(2, 1001)):
            primes.append(p)
    return primes


def fraction_jacobi_verdict(op):
    """``fraction_jacobi_walk`` with its witness printed as the CLI prints it."""
    ok, fs = fraction_jacobi_walk(op)
    return ok, None if fs is None else [str(f) for f in fs]


class TestHostileDenominators:
    """Many distinct prime denominators near 10⁶, and one denominator of 3,001
    digits: every verb exits 0 or 1 with no traceback, with the verdict of the
    Fraction path, or is refused from its walk size before any scaling."""

    BIG = 10**3000 + 3

    def write(self, tmp_path, doc):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def prime_poly(self, primes, m, terms):
        exps = [e for e in itertools.product(range(4), repeat=m) if sum(e) <= 3]
        return Poly(m, {e: Fraction(1 + i % 5, next(primes)) for i, e in enumerate(exps[:terms])})

    @pytest.mark.parametrize("terms", [8, 35])
    def test_check_poisson(self, capsys, tmp_path, terms):
        primes = iter(prime_denominators(terms, 2 * terms))
        f, g = self.prime_poly(primes, 4, terms), self.prime_poly(primes, 4, terms)
        for v in (MultiVector.basis(4, (0, 1), f),
                  MultiVector.basis(4, (0, 1), f) + MultiVector.basis(4, (2, 3), g)):
            code, data, err = run_json(capsys, "check-poisson", "--max-degree", "2",
                                       self.write(tmp_path, multivector_to_json(v)))
            assert code in (0, 1) and "Traceback" not in err
            ok, witness = fi_search_oracle(v)
            assert data["verdict"] is ok and code == (0 if ok else 1)
            if not ok:
                fs = [Poly.parse(w, 4) for w in data["witness"]]
                assert not npoisson.fi_defect(v, fs).is_zero()

    @pytest.mark.parametrize("n, terms", [(2, 8), (3, 8), (2, 20)])
    def test_check_jacobi(self, capsys, tmp_path, n, terms):
        primes = iter(prime_denominators(n * terms, 2 * terms + 1))
        nabla = MultiVector.basis(4, tuple(range(n)), self.prime_poly(primes, 4, terms))
        op = njacobi.JacobiOp(nabla, nabla.contract(self.prime_poly(primes, 4, terms)))
        outside = MultiVector.basis(4, (3,) + tuple(range(n - 2)),
                                    Poly.const(4, Fraction(1, next(primes))))
        for case in (op, njacobi.JacobiOp(nabla, op.box + outside)):
            code, data, err = run_json(capsys, "check-jacobi",
                                       self.write(tmp_path, njacobi.jacobiop_to_json(case)))
            assert code in (0, 1) and "Traceback" not in err
            assert (data["verdict"], data["witness"]) == fraction_jacobi_verdict(case)

    def test_thousands_of_digits(self, capsys, tmp_path):
        big = Fraction(1, self.BIG)
        x = Poly.variables(4)
        f = x[3] * big + x[0] * x[0] * Fraction(2, 3)
        tensor = MultiVector.basis(4, (0, 1, 2), f)
        bad = tensor + MultiVector.basis(4, (1, 2, 3), x[0] * big)
        for v in (tensor, bad):
            code, data, err = run_json(capsys, "check-poisson", "--max-degree", "1",
                                       self.write(tmp_path, multivector_to_json(v)))
            assert code in (0, 1) and "Traceback" not in err
            assert data["verdict"] is fi_search_oracle(v)[0]
        op = njacobi.JacobiOp(tensor, tensor.contract(x[1] + 3 * x[3]))
        for case in (op, njacobi.JacobiOp(tensor, op.box + MultiVector.basis(4, (0, 3), big))):
            code, data, err = run_json(capsys, "check-jacobi",
                                       self.write(tmp_path, njacobi.jacobiop_to_json(case)))
            assert code in (0, 1) and "Traceback" not in err
            assert (data["verdict"], data["witness"]) == fraction_jacobi_verdict(case)
        p = vector_product_algebra(3) * big
        q = algebra_from_form([[big if i == j == 3 else Fraction(int(i == j)) for j in range(4)]
                               for i in range(4)], 3)
        outputs = {}
        for verb, files in (("check-nlie", [p]), ("compat", [p, q]), ("derivations", [q])):
            paths = []
            for i, s in enumerate(files):
                path = tmp_path / f"s{i}.json"
                path.write_text(json.dumps(nlie_to_json(s)))
                paths.append(str(path))
            code, outputs[verb], err = run_json(capsys, verb, *paths)
            assert code in (0, 1) and "Traceback" not in err
        assert outputs["check-nlie"]["verdict"] is jacobi_oracle(p)[0]
        assert outputs["compat"]["verdict"] is compat_oracle(p, q)[0]
        basis = [[[Fraction(x) for x in row] for row in d]
                 for d in outputs["derivations"]["basis"]]
        assert basis and all(derivation_oracle(q, d) for d in basis)

    def test_refused_before_any_scaling(self, capsys, tmp_path, monkeypatch):
        """A 3-vector in 6 variables whose coefficient has 12,000 terms over
        distinct primes has a walk above MAX_WALK.  The deciders size it
        before they scale, and the one pass of check-jacobi over its pair
        gives up as soon as the lcm passes SCALE_BITS, so the refusal costs
        about what reading the file does: no lcm of 12,000 primes first."""
        for owner in (multivector, npoisson, njacobi):
            monkeypatch.setattr(owner, "integral", lambda *a: pytest.fail("scaled first"))
        primes = primes_between(10**5, 3 * 10**5)[:12000]
        f = Poly(6, dict(zip(itertools.product(range(5), repeat=6),
                             (Fraction(1, p) for p in primes))))
        blade = MultiVector.basis(6, (0, 1, 2), f)
        for verb, doc in (("check-poisson", multivector_to_json(blade)),
                          ("check-jacobi", njacobi.jacobiop_to_json(njacobi.JacobiOp(
                              blade, MultiVector.zero(6, 2))))):
            path = self.write(tmp_path, doc)
            start = time.perf_counter()
            code, out, err = run(capsys, verb, path)
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and "above the limit" in err


class TestClassify:
    def test_atomic_label(self, capsys):
        code, data, _ = run_json(capsys, "classify", str(DATA / "atomic_3lie.json"))
        assert code == 0
        assert data["label_json"] == {"kind": "unimodular", "r": 1, "m": 1}
        assert data["unimodular"] is True

    def test_skew_label(self, capsys):
        code, data, _ = run_json(capsys, "classify", str(DATA / "skew_psi_zero.json"))
        assert code == 0
        assert data["label_json"]["kind"] == "psi_zero"
        assert data["unimodular"] is False

    @pytest.mark.parametrize("arity", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["unimodular", "psi_plus", "psi_minus", "psi_one",
                                      "psi_zero"])
    def test_unimodular_matches_is_unimodular(self, capsys, tmp_path, kind, arity):
        """``unimodular`` is read off the label; it agrees with the symmetry of
        the generating form behind a random basis change."""
        rng = random.Random(f"{kind}-{arity}")
        if kind == "unimodular":
            r = rng.randint(0, arity + 1)
            label = bianchi.unimodular_label(r, rng.randint((r + 1) // 2, r))
        else:
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9)) if kind in (
                "psi_plus", "psi_minus") else None
            label = bianchi.psi_label(kind, lam)
        p = bianchi.synthesize(label, arity).change_basis(
            rand_invertible_matrix(rng, arity + 1))
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(nlie_to_json(p)))
        code, data, _ = run_json(capsys, "classify", str(path))
        assert code == 0
        assert data["unimodular"] is bianchi.is_unimodular(p) is (kind == "unimodular")

    def test_invalid_algebra_is_input_error(self, capsys, tmp_path):
        with open(DATA / "vector_product_3.json") as fh:
            raw = json.load(fh)
        raw["constants"][0]["value"] = ["1", "0", "0", "1"]
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(raw))
        code, _, err = run(capsys, "classify", str(bad))
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("path", [
        DATA / "atomic_3lie.json", DATA / "vector_product_3.json",
        DATA / "skew_psi_zero.json", GOLDEN / "psi_plus_7_3.json",
        GOLDEN / "psi_minus_1_2.json"], ids=lambda path: path.stem)
    def test_output_matches_golden(self, capsys, path):
        """Ψ±_λ behind a basis change (λ = 7/3 for arity 3, λ = 1/2 for
        arity 4), the unimodular fixtures and Ψ₀."""
        code, out, _ = run(capsys, "--json", "classify", str(path))
        assert code == 0
        assert out == (GOLDEN / f"classify_{path.stem}.json").read_text()


class TestDerivations:
    def test_vector_product_dimension(self, capsys):
        code, data, _ = run_json(capsys, "derivations",
                                 str(DATA / "vector_product_3.json"))
        assert code == 0
        assert data["dimension"] == 6
        assert len(data["basis"]) == 6


class TestSynthesize:
    def test_output_parses_and_reclassifies(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--kind", "psi_plus",
                           "--arity", "3", "--lambda", "7/3")
        assert code == 0
        p = nlie_from_json(json.loads(out))
        from nambu.bianchi import classify
        label = classify(p)
        assert label.kind == "psi_plus" and str(label.lam) == "7/3"

    def test_unimodular_needs_r_and_m(self, capsys):
        code, _, err = run(capsys, "synthesize", "--kind", "unimodular",
                           "--arity", "3")
        assert code == 2 and "--r and --m" in err

    @pytest.mark.parametrize("argv", [
        ["--kind", "psi_one", "--lambda", "5"],
        ["--kind", "psi_zero", "--lambda", "sqrt(2)"],
        ["--kind", "psi_plus", "--lambda", "2", "--r", "3"],
        ["--kind", "psi_minus", "--lambda", "2", "--m", "1"],
        ["--kind", "psi_zero", "--r", "1", "--m", "1"],
        ["--kind", "unimodular", "--r", "3", "--m", "2", "--lambda", "5"],
    ])
    def test_parameters_of_another_kind(self, capsys, argv):
        code, out, err = run(capsys, "synthesize", "--arity", "3", *argv)
        assert code == 2 and not out and err.startswith("error:")

    def test_invalid_lambda(self, capsys):
        code, _, err = run(capsys, "synthesize", "--kind", "psi_plus",
                           "--arity", "3", "--lambda", "-1")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("lam", ["1/0", "sqrt(0)", "sqrt(-2)", "sqrt(x)", "x"])
    def test_malformed_lambda(self, capsys, lam):
        code, out, err = run(capsys, "synthesize", "--kind", "psi_minus",
                             "--arity", "3", "--lambda", lam)
        assert code == 2 and not out and err.startswith("error:")

    def test_irrational_lambda(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--kind", "psi_minus",
                           "--arity", "3", "--lambda", "sqrt(8/3)")
        assert code == 0
        from nambu.bianchi import classify
        label = classify(nlie_from_json(json.loads(out)))
        assert label.kind == "psi_minus" and label.lam_sq == Fraction(8, 3)
        assert str(label) == "PsiLambdaMinus{λ=sqrt(8/3)}"

    def test_large_arity(self, capsys):
        """Only the nonzero rows of the form are built: Ψ₀ at arity 2000 (two
        rows, which took 21.3 s and 399 MB as a dense matrix) is immediate,
        and a full-rank unimodular answer of 2001 × 2001 entries, above
        MAX_ENTRIES, is refused before any work."""
        start = time.perf_counter()
        code, out, _ = run(capsys, "synthesize", "--kind", "psi_zero", "--arity", "2000")
        assert time.perf_counter() - start < 1
        assert code == 0
        p = nlie_from_json(json.loads(out))
        assert (p.dim, p.arity, len(p.constants)) == (2001, 2000, 2)
        start = time.perf_counter()
        code, out, err = run(capsys, "synthesize", "--kind", "unimodular", "--arity", "2000",
                             "--r", "2001", "--m", "2001")
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert f"4004001 in all, above the limit {MAX_ENTRIES}" in err
        assert 2001 * 2001 > MAX_ENTRIES

    @pytest.mark.parametrize("name, argv", [
        ("psi_plus_7_3", ["--kind", "psi_plus", "--arity", "3", "--lambda", "7/3"]),
        ("psi_minus_1_2", ["--kind", "psi_minus", "--arity", "4", "--lambda", "1/2"]),
        ("psi_plus_2", ["--kind", "psi_plus", "--arity", "3", "--lambda", "2"]),
        ("unimodular_3_2", ["--kind", "unimodular", "--arity", "3", "--r", "3",
                            "--m", "2"]),
        ("psi_one", ["--kind", "psi_one", "--arity", "3"]),
        ("psi_zero", ["--kind", "psi_zero", "--arity", "3"]),
    ])
    def test_output_matches_golden(self, capsys, name, argv):
        code, out, _ = run(capsys, "synthesize", *argv)
        assert code == 0
        assert out == (GOLDEN / f"synthesize_{name}.json").read_text()


class TestCompat:
    def test_compatible_pair(self, capsys):
        code, data, _ = run_json(capsys, "compat",
                                 str(DATA / "vector_product_3.json"),
                                 str(DATA / "atomic_3lie.json"))
        assert code == 0 and data["verdict"] is True

    def test_incompatible_pair(self, capsys):
        code, data, _ = run_json(capsys, "compat",
                                 str(DATA / "vector_product_3.json"),
                                 str(DATA / "skew_psi_zero.json"))
        assert code == 1
        assert data["verdict"] is False
        assert data["witness"] is not None


class TestHereditary:
    def test_freeze_top_vector(self, capsys):
        code, out, _ = run(capsys, "hereditary",
                           str(DATA / "vector_product_3.json"),
                           "--freeze", "0,0,0,1")
        assert code == 0
        h = nlie_from_json(json.loads(out))
        assert h.arity == 2
        assert h.bracket([[1, 0, 0, 0], [0, 1, 0, 0]]) == [0, 0, -1, 0]

    def test_answer_beyond_the_digit_limit(self, capsys, tmp_path):
        """A 4,000-digit constant frozen against a 4,000-digit vector writes
        the 8,000-digit product (past the int-to-str limit) in full."""
        big, other = 3 * 10**3999 + 1, -7 * 10**3999 - 9
        doc = {"dim": 3, "arity": 2, "constants": [
            {"indices": [1, 2], "value": ["0", "0", str(big)]}]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "hereditary", str(path), f"--freeze={other},0,0")
        assert code == 0 and not err
        (entry,) = json.loads(out)["constants"]
        assert entry["indices"] == [2]
        assert entry["value"] == ["0", "0", poly.coef_text(big * other)]
        assert len(entry["value"][2]) == 8001

    def test_bad_freeze_vector(self, capsys):
        code, _, err = run(capsys, "hereditary",
                           str(DATA / "vector_product_3.json"),
                           "--freeze", "0,0,x")
        assert code == 2 and "invalid --freeze" in err


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from(["Ψ", "λ", "PsiLambdaPlus{λ=sqrt(3/7)}", "", '"\\\n\t', "\u2028\x7f"]),
    st.fractions())  # not JSON: written through default=str
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.one_of(st.text(), st.sampled_from(["Ψ", "λ", ""])), inner, max_size=4)),
    max_leaves=25)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_bytes_equal_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, default=str)

    def test_nesting_and_empty_containers(self):
        value = {"a": [], "b": {}, "c": [[], [{}], {"Ψ": ["λ", 1, None, True]}], "": [[[]]]}
        assert cli._json_text(value) == json.dumps(value, indent=2, default=str)


class TestIntegrate:
    def test_builtin_spin_csv(self, capsys):
        code, out, _ = run(capsys, "integrate", "--builtin", "spin",
                           "--x0", "1,0,0", "--h", "0.001", "--steps", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x1,x2,x3,drift1,drift2"
        assert len(lines) == 12  # header + initial state + 10 steps
        last = [float(x) for x in lines[-1].split(",")]
        assert last[0] == pytest.approx(0.01)
        assert last[4] < 1e-12 and last[5] < 1e-12

    def test_builtin_kepler(self, capsys):
        code, out, _ = run(capsys, "integrate", "--builtin", "kepler",
                           "--x0", "1,1,1,0,0,0", "--steps", "5")
        assert code == 0
        last = [float(x) for x in out.strip().splitlines()[-1].split(",")]
        # actions static, angles advance together at rate ν = 2/27
        assert last[1:4] == [1.0, 1.0, 1.0]
        assert last[4] == pytest.approx(last[0] * 2.0 / 27.0)

    def test_system_file(self, capsys):
        code, out, _ = run(capsys, "integrate", "--system",
                           str(DATA / "oscillator_system.json"),
                           "--x0", "1,0", "--h", "0.001", "--steps", "10")
        assert code == 0
        last = [float(x) for x in out.strip().splitlines()[-1].split(",")]
        assert last[3] < 1e-12  # energy drift

    def test_missing_x0(self, capsys):
        code, _, err = run(capsys, "integrate", "--builtin", "spin")
        assert code == 2 and "--x0 is required" in err

    def test_no_source_given(self, capsys):
        code, _, err = run(capsys, "integrate", "--x0", "1,0,0")
        assert code == 2 and "--builtin" in err

    @pytest.mark.parametrize("name, argv", [
        ("spin", ["--builtin", "spin", "--B", "1/3,-2,1/2", "--mu", "3/2",
                  "--x0", "1,1/2,-2", "--h", "0.01", "--steps", "50"]),
        ("kepler", ["--builtin", "kepler", "--mass", "2", "--k", "0.5",
                    "--x0", "1,2,1/2,0.1,0.2,0.3", "--h", "0.05",
                    "--steps", "50"]),
        ("oscillator", ["--system", str(DATA / "oscillator_system.json"),
                        "--x0", "1,-1/3", "--h", "0.02", "--steps", "50"]),
        # monomials in several variables pin the order of the float products
        ("mixed", ["--system", str(GOLDEN / "mixed_system.json"),
                   "--x0", "1/2,-1/3,1/4", "--h", "0.01", "--steps", "50"]),
    ])
    def test_output_matches_golden(self, capsys, name, argv):
        code, out, _ = run(capsys, "integrate", *argv)
        assert code == 0
        assert out == (GOLDEN / f"integrate_{name}.csv").read_text()

    @pytest.mark.parametrize("argv", [
        ["--builtin", "spin", "--x0", "1,0"],
        ["--builtin", "kepler", "--x0", "1,2,3"],
        ["--builtin", "spin", "--x0", "1,0,0,5"],
        ["--system", str(DATA / "oscillator_system.json"), "--x0", "1,0,0"],
    ])
    def test_state_dimension_mismatch(self, capsys, argv):
        code, out, err = run(capsys, "integrate", *argv, "--steps", "3")
        assert code == 2 and "--x0" in err
        assert out == ""

    @pytest.mark.parametrize("step, steps", [
        ("1e-3", "0"), ("1e-3", "-2"), ("0", "5"), ("-0.1", "5"),
        ("nan", "5"), ("inf", "5"),
    ])
    def test_bad_step_or_count(self, capsys, step, steps):
        code, out, err = run(capsys, "integrate", "--builtin", "spin",
                             "--x0", "1,0,0", f"--h={step}", f"--steps={steps}")
        assert code == 2 and "h > 0" in err
        assert out == ""

    def test_kepler_singular_start(self, capsys):
        code, out, err = run(capsys, "integrate", "--builtin", "kepler",
                             "--x0", "1,-1,0,0,0,0", "--steps", "3")
        assert code == 2 and "singular" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["--builtin", "spin", "--B", "1,2"],
        ["--builtin", "spin", "--mu", "1/0"],
        ["--builtin", "spin", "--x0", "1,x,0"],
    ])
    def test_malformed_rationals(self, capsys, argv):
        code, _, err = run(capsys, "integrate", "--x0", "1,0,0", *argv)
        assert code == 2 and err.startswith("error:")


class TestIntegrateStream:
    """``integrate`` writes its rows block by block."""

    def test_abort_after_the_rows_so_far(self, capsys, tmp_path):
        # dx₁/dt = −x₁², dx₂/dt = 2x₁x₂ from x₁ = −1/2 blows up at t = 2,
        # after more rows than one block holds
        h = Poly(2, {(2, 1): 1})
        system = tmp_path / "blowup.json"
        system.write_text(json.dumps({
            "tensor": multivector_to_json(MultiVector.basis(2, (0, 1))),
            "hamiltonians": [h.to_json()]}))
        code, out, err = run(capsys, "integrate", "--system", str(system),
                             "--x0=-1/2,1", "--h", "0.001", "--steps", "5000")
        assert code == 2
        assert err == "error: non-finite state at t=2.0019999999998905\n"
        traj = dynamics.rk4_integrate(
            MultiVector.basis(2, (0, 1)).hamiltonian_field([h]), [-0.5, 1.0],
            0.001, 5000, [h])
        lines = out.splitlines()
        assert len(lines) == 1 + len(traj.states) == 2003 > dynamics.BLOCK
        assert out.endswith("\n") and lines[0] == "t,x1,x2,drift1"
        assert lines[1:] == [",".join(f"{v:.12g}" for v in (t, *state, *row))
                             for t, state, row in zip(traj.times, traj.states,
                                                      traj.drift_rows)]

    def test_five_thousand_term_hamiltonian(self, capsys, tmp_path):
        # a compiled sum of 5,000 terms as one expression overflows the
        # compiler's recursion limit
        terms = [{"coef": f"{k % 7 - 3 or 5}/{k % 5 + 1}", "exps": list(e)}
                 for k, e in enumerate(itertools.islice(
                     ((a, b, d - a - b) for d in range(31) for a in range(d + 1)
                      for b in range(d - a + 1)), 5000))]
        assert len(terms) == 5000
        system = tmp_path / "big.json"
        system.write_text(json.dumps({
            "tensor": multivector_to_json(MultiVector.basis(3, (0, 1, 2))),
            "hamiltonians": [terms, [{"coef": "1", "exps": [1, 0, 0]}]]}))
        code, out, err = run(capsys, "integrate", "--system", str(system),
                             "--x0=1/4,-1/8,1/16", "--steps", "3")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 5

    def test_initial_monitors_use_evaluate_float(self, capsys, monkeypatch):
        calls = []
        plain = Poly.evaluate_float
        monkeypatch.setattr(Poly, "evaluate_float",
                            lambda self, point: calls.append(self) or plain(self, point))
        code, _, _ = run(capsys, "integrate", "--builtin", "spin",
                         "--x0", "1,0,0", "--steps", "20")
        assert code == 0 and len(calls) == 2

    def test_peak_memory_does_not_grow_with_steps(self):
        def child_peak_kb(steps):
            proc = subprocess.Popen(
                [sys.executable, "-m", "nambu.cli", "integrate", "--builtin", "spin",
                 "--B", "1,1/2,-1", "--x0", "1,0,0", "--steps", str(steps)],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=CHILD_ENV)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            assert proc.returncode == 0
            return usage.ru_maxrss

        small, large = child_peak_kb(3000), child_peak_kb(200_000)
        assert large <= 1.1 * small, (small, large)


SOURCES = {"spin": ["--builtin", "spin", "--B", "1,1/2,-1"],
           "kepler": ["--builtin", "kepler"],
           "system": ["--system", str(DATA / "oscillator_system.json")]}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SOURCES)),
       st.lists(st.sampled_from(["0", "1", "-1", "1/2", "-2/3", "3", "1e200"]),
                min_size=1, max_size=7),
       st.sampled_from(["0", "-1", "nan", "inf", "1e-3"]),
       st.integers(-1, 5))
def test_integrate_arguments_fuzz(source, x0, step, steps):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["integrate", *SOURCES[source], "--x0=" + ",".join(x0),
                     f"--h={step}", f"--steps={steps}"])
    assert code in (0, 2)
    assert (code == 2) == bool(err.getvalue())
    if code == 0:
        lines = out.getvalue().splitlines()
        assert len(lines) == steps + 2
        assert len({line.count(",") for line in lines}) == 1


# the fixture each file argument of FILE_VERBS starts from
FUZZED = {"check-nlie": "vector_product_3.json", "classify": "skew_psi_zero.json",
          "derivations": "atomic_3lie.json", "compat-first": "atomic_3lie.json",
          "compat-second": "skew_psi_zero.json", "hereditary": "vector_product_3.json",
          "check-poisson": "atomic_tensor.json", "check-jacobi": "jacobi_pair.json",
          "integrate": "oscillator_system.json"}
DELETE = object()
REPLACEMENTS = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0.5, 2.0, -1.0, 1e300]),
    st.sampled_from(["", "x", "1/2", "0001", "-3"]),
    st.sampled_from([[], [0], ["1"], [[]]]), st.sampled_from([{}, {"a": 1}]),
    st.just(DELETE))


def node_paths(doc, prefix=()):
    """The path of every node below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


def must_refuse(path, value) -> bool:
    """A rational list (``value``) that is not a list, or a rational
    (``coef``, an entry of ``value``) that is not a string."""
    if path[-1] == "value":
        return not isinstance(value, list)
    if path[-1] == "coef" or path[-2:-1] == ("value",):
        return not isinstance(value, str)
    return False


@pytest.mark.parametrize("verb", sorted(FUZZED))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_input_fuzz(tmp_path, verb, data):
    """One node of a fixture replaced by a value of another JSON type, or
    deleted: ``main`` returns 0, 1 or 2, never raises, and exit 2 comes with
    an ``error:`` line and no output.  A rational list that is not a list,
    or a rational that is not a string, is refused."""
    fixture = DATA / FUZZED[verb]
    doc = json.loads(fixture.read_text())
    path = data.draw(st.sampled_from(list(node_paths(doc))), label="path")
    value = data.draw(REPLACEMENTS, label="value")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    bad = tmp_path / fixture.name
    bad.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(bad) if a == "@" else a for a in FILE_VERBS[verb]])
    assert code in (0, 1, 2)
    if code == 2:
        assert not out.getvalue() and err.getvalue().startswith("error:")
    if must_refuse(path, value):
        assert code == 2


class TestWittDemo:
    def test_bracket_table(self, capsys):
        code, data, _ = run_json(capsys, "witt-demo")
        assert code == 0
        assert data["verdict"] is True
        assert data["{x1,x2}"] == "x1"
        assert data["{x1,x3}"] == "2 x2"
        assert data["{x2,x3}"] == "x3"


class TestEntryPoint:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_installed_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nambu.cli", "--json", "check-nlie",
             str(DATA / "vector_product_3.json")],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] is True

    def test_help_lists_verbs(self):
        proc = subprocess.run([sys.executable, "-m", "nambu.cli", "--help"],
                              capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0
        for verb in ("check-nlie", "check-poisson", "check-jacobi", "classify",
                     "derivations", "synthesize", "compat", "hereditary",
                     "integrate", "witt-demo"):
            assert verb in proc.stdout
