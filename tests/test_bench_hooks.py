"""The benchmark's hooks into the library: every name ``bench/tracer.py``
wraps must exist, and every counter ``bench/layer_map.json`` expects to fire
must be a per-layer metric of ``BENCHMARK.json``.  Renaming or deleting a
traced library function fails here, not only in the benchmark."""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from nambu import bianchi, cli, linalg
from nambu.nlie import NLieStructure, nlie_to_json

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracer
    return tracer


def test_tracer_installs_and_uninstalls(tracer):
    from nambu.multivector import MultiVector
    from nambu.poly import Poly
    original = MultiVector.apply, Poly.__mul__
    t = tracer.Tracer()
    try:
        t.install()
        assert (MultiVector.apply, Poly.__mul__) != original
    finally:
        t.uninstall()
    assert (MultiVector.apply, Poly.__mul__) == original


def test_expected_counters_are_benchmark_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((ROOT / "bench" / "layer_map.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(layer_map["fires_on"]) <= per_layer


def test_algebra_verbs_reach_the_traced_kernels(monkeypatch, tmp_path, capsys):
    """``layer_map.json`` expects ``nlie.bracket`` and ``linalg.det`` to fire on
    the algebra workload, where only ``hereditary`` reaches the bracket and
    only ``classify`` the determinant and the signature: one hereditary call
    must call ``NLieStructure.bracket``, a classify call on a Ψ algebra
    ``linalg.det`` and one on a unimodular algebra ``linalg.signature``."""
    c = [[1, 2, 0, 0, 1], [0, 1, -1, 0, 0], [0, 0, 1, 2, 0], [1, 0, 0, 1, 0], [0, 0, 0, 1, 1]]
    paths = {}
    for name, label in [("psi", bianchi.psi_label("psi_plus", Fraction(2, 3))),
                        ("unimodular", bianchi.unimodular_label(3, 2))]:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(nlie_to_json(bianchi.synthesize(label, 4).change_basis(c))))
    calls = Counter()
    for owner, name in [(NLieStructure, "bracket"), (linalg, "det"), (linalg, "signature")]:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    runs = [("hereditary", [str(paths["psi"]), "--freeze=1,0,2,-1,1"], "bracket"),
            ("classify", [str(paths["psi"])], "det"),
            ("classify", [str(paths["unimodular"])], "signature")]
    for verb, args, target in runs:
        calls.clear()
        assert cli.main([verb, *args]) == 0, capsys.readouterr().err
        assert calls[target] > 0, f"{verb} did not reach {target}"


def test_check_jacobi_reaches_the_traced_kernels(tracer, capsys):
    """Every counter ``layer_map.json`` expects to fire on the jacobi workload
    fires on two ``check-jacobi`` calls under the benchmark's own tracer: a
    true gradient extension ∇ + s(∇_h) and a false rational pair, whose
    ``box_poisson`` runs ``is_n_poisson`` on □.  A fused kernel that stops
    one of them fails here, not only in ``bench/selftest.py``."""
    layer_map = json.loads((ROOT / "bench" / "layer_map.json").read_text())
    expected = sorted(name for name, workloads in layer_map["fires_on"].items()
                      if "jacobi" in workloads)
    t = tracer.Tracer()
    out_bytes = 0
    try:
        t.install()
        t.enabled = True
        for name, code in [("gradient_extension", 0), ("rational_pair", 1)]:
            assert cli.main(["check-jacobi", str(ROOT / "tests" / "data" / f"{name}.json")]) \
                == code
            out_bytes += len(capsys.readouterr().out)
    finally:
        t.uninstall()
    fired = {f"{name}.calls": count for name, count in t.calls.items()}
    fired.update({"poly.term_products": t.term_products, "cli.output_bytes": out_bytes})
    assert [name for name in expected if not fired.get(name)] == []
    assert "poly.term_products" in expected and "multivector.lie_derivative_of.calls" in expected
