"""Benchmark of the ``nambu`` CLI verbs, end to end and per layer.

    python3 bench/run.py --workload poisson --seed 1 --seconds 20 --trace 0

One process, one caller, no extra threads: a closed loop sends each request
through ``nambu.cli.main([..., "--json"])`` in-process, with stdout
captured, and sends the next one only after the previous returned and its
output was checked.  Every request is a distinct seeded instance (see
``workloads.py``).  Timing covers only the ``main`` call; input generation,
file writing and output checks happen outside it.

``--trace 0`` reports the end-to-end metrics; the latency percentiles are
Harrell-Davis estimates (see ``percentile``).  Every reported time is
calibrated against a fixed reference computation timed right around it
(see ``reference``), because the speed of a shared host drifts by 20-30 %
within seconds and that drift moves the program and the reference alike;
the summary line also gives the uncalibrated times.  The loop runs until
``--seconds`` of wall time have passed and at least ``MIN_REQUESTS``
requests were made, so that the 90th percentile has ten samples beyond it,
and then on to the end of the current pass over the workload's shapes, so
that every run measures the same mix of shapes.

``--trace 1`` reports per-layer metrics instead.  It runs a fixed number of
requests (``TRACE_REQUESTS``) so that every count repeats exactly at one
seed: first with the tracer on, then again with it off, to measure the
tracing overhead.  The spans are written to
``.bench_out/trace-<workload>-<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a summary
with the sample counts, the instance mix and every failed request with its
input.  The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from math import exp, lgamma, log, log1p
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

MIN_REQUESTS = 100
# median seconds of ``reference()`` on the 2-core Xeon (KVM guest) the
# benchmark was tuned on; a calibrated time reads as seconds on that host
REFERENCE_S = 0.010
REFERENCE_ROUNDS = 100
MAX_LOOP_SECONDS = 120.0
SETUP_PROBES = 9
TRACE_REQUESTS = {"poisson": 40, "jacobi": 80, "algebra": 96, "flow": 42}


class SetupError(RuntimeError):
    pass


def import_program():
    """Import the program from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import nambu
        import nambu.cli
    except ImportError as exc:
        raise SetupError(f"cannot import nambu from {SRC}: {exc}") from exc
    if Path(nambu.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"nambu was imported from {nambu.__file__}, not {SRC}")
    import workloads
    return nambu.cli, workloads


# -- calibration -------------------------------------------------------------------

def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the kind the
    program does (Fraction arithmetic, tuple-keyed dicts, small objects)."""
    start = perf_counter()
    table = {}
    for r in range(REFERENCE_ROUNDS):
        total = Fraction(0)
        for i in range(1, 24):
            total += Fraction(i % 7 + r, i % 5 + 1)
            table[(r, i % 3, i)] = total * total
    return perf_counter() - start


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` rescaled to the host speed ``REFERENCE_S`` stands for,
    given the reference times measured just before and just after."""
    return seconds * 2 * REFERENCE_S / (before + after)


# -- set-up time -----------------------------------------------------------------

def probe(workload: str, seed: int) -> int:
    """Child side of ``measure_setup``: import, build and write the first
    batch of requests, then report ready."""
    _, workloads = import_program()
    directory = WORK / f"probe-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    try:
        stream = workloads.Stream(workload, seed)
        for i in range(stream.batch):
            stream.next().materialize(str(directory), i)
        print("ready", flush=True)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start until the first batch of requests is
    ready, in fresh interpreters, so that every probe pays the import."""
    times = []
    before = reference()
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--probe",
                 "--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            _, err = child.communicate(timeout=120)
        if line.strip() != "ready" or child.returncode != 0:
            raise SetupError(f"set-up probe failed (exit {child.returncode}): "
                             f"{err.strip()[-2000:]}")
        after = reference()
        times.append(calibrated(elapsed, before, after))
        before = after
    return times


# -- one request -------------------------------------------------------------------

class Outcome:
    __slots__ = ("seconds", "stdout", "error")

    def __init__(self, seconds: float, stdout: str, error: str | None):
        self.seconds, self.stdout, self.error = seconds, stdout, error


def call(cli, argv: list[str], expected_code: int) -> Outcome:
    """Run one request; only the ``main`` call is timed."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            error = traceback.format_exc(limit=-8)
        seconds = perf_counter() - start
    if error is None and code != expected_code:
        error = f"exit code {code}, expected {expected_code}; stderr: {err.getvalue()[-500:]}"
    return Outcome(seconds, out.getvalue(), error)


def check(workloads, req, outcome: Outcome) -> str | None:
    if outcome.error is not None:
        return outcome.error
    try:
        req.check(outcome.stdout)
    except workloads.CheckFailed as exc:
        return str(exc)
    except Exception:
        return "output check raised: " + traceback.format_exc(limit=-4)
    return None


class Tally:
    """Failures and the instance mix of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []
        self.mix: Counter = Counter()

    def record(self, index: int, req, argv: list[str], error: str | None) -> None:
        self.attempted += 1
        self.mix[json.dumps({"kind": req.kind, **req.mix}, sort_keys=True)] += 1
        if error is not None:
            self.failures.append({"index": index, "kind": req.kind, "argv": argv,
                                  "inputs": req.files, "expected_code": req.code,
                                  "error": error})

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "error_rate": len(self.failures) / max(self.attempted, 1),
                "instance_mix": [dict(json.loads(k), count=n)
                                 for k, n in sorted(self.mix.items())],
                "failures": self.failures}


class Feed:
    """Requests of a run, built and written to disk one batch at a time."""

    def __init__(self, workloads, workload: str, seed: int, directory: Path):
        self.stream = workloads.Stream(workload, seed)
        self.directory = directory
        self.pending: list = []
        self.index = 0

    def next(self):
        if not self.pending:
            for _ in range(self.stream.batch):
                req = self.stream.next()
                self.pending.append((self.index, req,
                                     req.materialize(str(self.directory), self.index)))
                self.index += 1
            self.pending.reverse()
        return self.pending.pop()


# -- the two kinds of run ------------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by a Beta(p(n+1), (1-p)(n+1)) density.  Latencies cluster by
    request kind, and a single order statistic jumps across the gaps
    between clusters; this weighted mean does not."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = lgamma(a + b) - lgamma(a) - lgamma(b)
    steps = 64 * n
    weights = [0.0] * n
    for k in range(steps):  # midpoint rule over [0, 1], n slices
        x = (k + 0.5) / steps
        weights[k * n // steps] += exp(log_norm + (a - 1) * log(x) + (b - 1) * log1p(-x))
    return sum(w * v for w, v in zip(weights, xs)) / sum(weights)


def timed_run(cli, workloads, feed: Feed, seconds: float, min_requests: int,
              inject=None) -> tuple[dict, Tally, dict]:
    """The closed loop with tracing off.  A reference timing between
    consecutive requests calibrates each request's latency."""
    tally = Tally()
    latencies, ok_latencies, raw = [], [], []
    reference()  # warm-up
    before = reference()
    start = perf_counter()
    pool = feed.stream.pool
    while True:
        elapsed = perf_counter() - start
        if elapsed >= MAX_LOOP_SECONDS or (
                elapsed >= seconds and tally.attempted >= min_requests
                and tally.attempted % pool == 0):
            break
        index, req, argv = feed.next()
        if inject is not None:
            inject(index, req)
        outcome = call(cli, argv, req.code)
        after = reference()
        latency = calibrated(outcome.seconds, before, after)
        before = after
        raw.append(outcome.seconds)
        latencies.append(latency)
        error = check(workloads, req, outcome)
        tally.record(index, req, argv, error)
        if error is None:
            ok_latencies.append(latency)
    # percentiles of the successful requests; of all of them if none succeeded
    timed = ok_latencies or latencies
    metrics = {
        "throughput_rps": (len(ok_latencies), len(ok_latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (len(timed), 1000 * percentile(timed, 0.5), "ms"),
        "latency_p90_ms": (len(timed), 1000 * percentile(timed, 0.9), "ms"),
        "peak_rss_mb": (1, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    uncalibrated = {"throughput_rps": len(raw) / sum(raw),
                    "latency_p50_ms": 1000 * percentile(raw, 0.5),
                    "latency_p90_ms": 1000 * percentile(raw, 0.9)}
    return metrics, tally, uncalibrated


def traced_run(cli, workloads, tracer_mod, feed: Feed, requests: int,
               trace_file: Path) -> tuple[dict, Tally]:
    """A fixed number of requests, traced, then the same requests untraced."""
    tracer = tracer_mod.Tracer()
    tracer.install()
    tally = Tally()
    batch = [feed.next() for _ in range(requests)]
    outputs, traced_s, output_bytes = [], 0.0, 0
    try:
        for index, req, argv in batch:
            tracer.request = index
            tracer.enabled = True
            try:
                outcome = call(cli, argv, req.code)
            finally:
                tracer.enabled = False
            traced_s += outcome.seconds
            output_bytes += len(outcome.stdout.encode())
            outputs.append(outcome)
    finally:
        tracer.uninstall()
    plain_s = 0.0
    for (index, req, argv), traced in zip(batch, outputs):
        outcome = call(cli, argv, req.code)
        plain_s += outcome.seconds
        error = check(workloads, req, traced) or outcome.error
        if error is None and outcome.stdout != traced.stdout:
            error = "output differs between the traced and the untraced call"
        tally.record(index, req, argv, error)

    calls = tracer.calls
    root_s = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)

    def per_verdict(defects: str, verdicts: str) -> float:
        return calls[defects] / calls[verdicts] if calls[verdicts] else 0.0

    metrics = {}
    for name in ("poly.mul", "poly.add", "poly.partial", "poly.evaluate_float",
                 "linalg.rref", "linalg.det",
                 "multivector.apply", "multivector.lie_derivative_of",
                 "multivector.wedge", "multivector.contract_form",
                 "multivector.is_decomposable", "nlie.bracket",
                 "npoisson.fi_defect", "npoisson.casimir_polynomials",
                 "njacobi.jacobi_defects", "bianchi.classify"):
        metrics[f"{name}.calls"] = (calls[name], "count")
    metrics["poly.term_products"] = (tracer.term_products, "count")
    metrics["npoisson.defects_per_verdict"] = (
        per_verdict("npoisson.fi_defect", "npoisson.is_n_poisson"), "defects/verdict")
    metrics["njacobi.defects_per_verdict"] = (
        per_verdict("njacobi.jacobi_defects", "njacobi.is_n_jacobi"), "defects/verdict")
    metrics["dynamics.rhs_evals"] = (calls[tracer_mod.RHS], "count")
    metrics["cli.output_bytes"] = (output_bytes, "B")
    for layer in tracer_mod.LAYERS:
        metrics[f"{layer}.self_share"] = (100 * tracer.self_s[layer] / root_s, "%")
    metrics["trace.request_s"] = (root_s, "s")
    metrics["trace_overhead"] = (traced_s / plain_s, "ratio")

    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_file, "w") as fh:
        json.dump({"requests": [[i, req.kind] for i, req, _ in batch], **tracer.dump()}, fh)
    return {k: (requests, v, unit) for k, (v, unit) in metrics.items()}, tally


# -- entry point ---------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def result_line(metrics: dict, tally: Tally) -> dict:
    return {"correct": not tally.failures, "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (_, value, unit) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.probe:
            return probe(args.workload, args.seed)
        setup = [] if args.trace else measure_setup(args.workload, args.seed)
        cli, workloads = import_program()
        if args.workload not in workloads.WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    directory = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    uncalibrated = {}
    try:
        feed = Feed(workloads, args.workload, args.seed, directory)
        if args.trace:
            import tracer
            metrics, tally = traced_run(
                cli, workloads, tracer, feed, TRACE_REQUESTS[args.workload],
                OUT / f"trace-{args.workload}-{args.seed}.json")
        else:
            metrics, tally, uncalibrated = timed_run(cli, workloads, feed, args.seconds,
                                                     MIN_REQUESTS)
            metrics = {"setup_s": (len(setup), statistics.median(setup), "s"),
                       **metrics}
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "samples": {name: n for name, (n, _, _) in metrics.items()},
               "uncalibrated": uncalibrated, **tally.summary()}
    print(json.dumps(summary, default=str))
    print(json.dumps(result_line(metrics, tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
