"""Self-test of the benchmark on tiny runs (about a minute on two cores).

    python3 bench/selftest.py

It checks that
- every workload runs, timed and traced, and its outputs pass the checks;
- every metric named in BENCHMARK.json is printed, with its unit;
- every counted trace target fires on the workloads that
  ``layer_map.json`` predicts for it, and its count repeats exactly when the
  traced run is repeated at the same seed;
- a wrong expectation injected into a run is counted as a failure;
- a trace target that no longer exists is an error.
Exits with code 1 and a list of problems if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SEED = 11


def main_output(argv: list[str]) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().splitlines()
    if code != 0 or len(lines) < 2:
        raise AssertionError(f"bench/run.py {' '.join(argv)} exited {code}: {lines[-3:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def selftest() -> list[str]:
    problems: list[str] = []
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    cli, workloads = run.import_program()
    import tracer

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    def metric_names(result: dict, section: str, where: str) -> None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in spec[section]}
        expect(got == want, f"{where}: metrics {got} differ from {section} {want}")

    workloads.SHAPE_ROUNDS = 1  # one pass over the shapes is one cycle
    traced = {}
    for workload in workloads.WORKLOADS:
        size = len(workloads.CYCLES[workload])
        run.MIN_REQUESTS = size
        run.TRACE_REQUESTS[workload] = size
        common = ["--workload", workload, "--seed", str(SEED), "--seconds", "0"]
        summary, result = main_output(common + ["--trace", "0"])
        expect(result["correct"] and result["attempted"] == size,
               f"{workload}: timed run {result['attempted']} attempted, "
               f"failures {summary['failures']}")
        metric_names(result, "end_to_end", f"{workload} --trace 0")
        counts = []
        for _ in range(2):
            summary, result = main_output(common + ["--trace", "1"])
            expect(result["correct"], f"{workload}: traced run failures {summary['failures']}")
            metric_names(result, "per_layer", f"{workload} --trace 1")
            counts.append({name: m["value"] for name, m in result["metrics"].items()
                           if m["unit"] in ("count", "B", "defects/verdict")})
        expect(counts[0] == counts[1], f"{workload}: traced counts differ between two runs")
        traced[workload] = counts[0]

    for name, fires_on in layer_map["fires_on"].items():
        for workload in fires_on:
            expect(traced[workload].get(name, 0) > 0,
                   f"{name} did not fire on {workload}")

    feed = run.Feed(workloads, "flow", SEED, run.WORK / "selftest")
    feed.directory.mkdir(parents=True, exist_ok=True)

    def inject(index: int, req) -> None:
        if index == 0:
            req.code = 1 - req.code

            def wrong(stdout: str) -> None:
                raise workloads.CheckFailed("injected wrong expectation")
            req.check = wrong

    try:
        _, tally, _ = run.timed_run(cli, workloads, feed, 0, min_requests=3, inject=inject)
    finally:
        for path in feed.directory.iterdir():
            path.unlink()
        feed.directory.rmdir()
    summary = tally.summary()
    expect(summary["failed"] == 1 and summary["error_rate"] == 1 / summary["attempted"],
           f"injected failure not counted: {summary['failed']} failed of {summary['attempted']}")

    tracer.TARGETS.append(("poly", "Poly.no_such_method", "poly.none", tracer.LEAF))
    try:
        t = tracer.Tracer()
        t.install()
        t.uninstall()
        problems.append("a missing trace target was not reported")
    except tracer.TraceError:
        t.uninstall()
    finally:
        tracer.TARGETS.pop()
    return problems


def main() -> int:
    problems = selftest()
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
