"""The benchmark's hooks into the library: every name ``bench/tracer.py``
wraps must exist, and every counter ``bench/layer_map.json`` expects to fire
must be a per-layer metric of ``BENCHMARK.json``.  Renaming or deleting a
traced library function fails here, not only in the benchmark."""

import json
from pathlib import Path

import pytest

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
