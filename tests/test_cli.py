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

from nambu import cli, dynamics, njacobi, npoisson
from nambu.cli import main
from nambu.bianchi import MAX_ENTRIES, algebra_from_form
from nambu.multivector import MultiVector, multivector_from_json, multivector_to_json
from nambu.nlie import MAX_WORK, nlie_from_json, nlie_to_json, vector_product_algebra
from nambu.poly import Poly

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
GOLDEN = Path(__file__).resolve().parent / "data"


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


def write_altered(tmp_path, name, path, value):
    """A copy of the demo file ``name`` with the entry at ``path`` set to ``value``."""
    data = json.loads((DATA / name).read_text())
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    bad = tmp_path / name
    bad.write_text(json.dumps(data))
    return bad


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
        monkeypatch.setattr(cli, "is_decomposable", counting)
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(multivector_to_json(
            MultiVector.basis(5, (0, 1, 2), Poly.var(5, 3)))))
        code, data, _ = run_json(capsys, "check-poisson", str(path))
        assert code == 0
        assert data["decomposable"] is True
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
            assert all(field.apply_field(c).is_zero() for c in casimirs)

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
        assert h.bracket_basis((0, 1)) == [0, 0, -1, 0]

    def test_bad_freeze_vector(self, capsys):
        code, _, err = run(capsys, "hereditary",
                           str(DATA / "vector_product_3.json"),
                           "--freeze", "0,0,x")
        assert code == 2 and "invalid --freeze" in err


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
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
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
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] is True

    def test_help_lists_verbs(self):
        proc = subprocess.run([sys.executable, "-m", "nambu.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for verb in ("check-nlie", "check-poisson", "check-jacobi", "classify",
                     "derivations", "synthesize", "compat", "hereditary",
                     "integrate", "witt-demo"):
            assert verb in proc.stdout
