"""The repository benchmark: one command, one workload, one JSON line.

    python3 perfbench/run.py --workload sim-wide --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
Workloads: ``sim-wide``, ``verify-qft``, ``reorder-sift`` (each in its own
child process, see ``ddrunner.py``) and ``service-mix`` (server in its own
process, this process as the client, see ``service_mix.py``); ``all`` runs
the four in turn and ends with one JSON object whose metric names carry
the workload as a prefix.

Every end-to-end metric is printed by name with its unit and sample count,
then the last line of standard output is the JSON result.  With
``--trace 0`` its metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones (0 where the workload does
not exercise that layer).  Spans of a traced run go to
``perfbench/out/trace-<workload>-s<seed>.json``.
"""

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter

import calibrate
import common

DD_WORKLOADS = ("sim-wide", "verify-qft", "reorder-sift")
WORKLOADS = DD_WORKLOADS + ("service-mix",)
SETUPS = 3

_DD = (
    "qc.qasm.parse_ms", "dd.gates_per_s", "dd.peak_nodes", "dd.final_nodes",
    "dd.complex_table.entries", "dd.complex_table.lookups", "dd.complex_table.hit_ratio",
    "dd.governance.table_bytes", "trace.overhead_pct", "trace.self_ms.job",
    "trace.self_ms.qasm.parse", "error_ratio",
)
_STEPPED = (
    "simulation.step_ms_p50", "simulation.step_ms_p99", "dd.unique.vector.entries",
    "dd.unique.vector.hit_ratio", "ref.dense_per_axis_s", "trace.self_ms.simulation.step",
)
# The per-layer metrics each workload measures; the others read 0 there.
LAYERS = {
    "sim-wide": _DD + _STEPPED + (
        "dd.sampling.sample_ms", "dd.compute.add.hit_ratio", "dd.compute.apply.hit_ratio",
        "trace.self_ms.dd.sampling",
    ),
    "verify-qft": _DD + (
        "dd.unique.matrix.entries", "dd.unique.matrix.hit_ratio", "dd.compute.add.hit_ratio",
        "dd.compute.mult-mm.hit_ratio", "verification.build_ms", "verification.alternating_ms",
        "trace.self_ms.verification.build", "trace.self_ms.verification.alternating",
        "trace.self_ms.verification.construct",
    ),
    "reorder-sift": _DD + _STEPPED + (
        "dd.compute.mult-mv.hit_ratio", "dd.governance.gc_runs", "dd.reorder.sift_ms",
        "dd.reorder.swaps", "dd.reorder.runs", "dd.reorder.nodes_before",
        "dd.reorder.nodes_after", "trace.self_ms.dd.reorder",
    ),
    "service-mix": (
        "qc.qasm.parse_ms", "service.cached_ms_p50", "service.fresh_ms_p50",
        "service.request_ms_mean", "service.job_ms_mean", "service.queue_ms_mean",
        "service.cache.hit_ratio", "service.worker_table_bytes", "service.max_rate_rps",
        "loadgen.rate20.sent", "loadgen.rate20.succeeded", "loadgen.rate20.failed",
        "loadgen.rate40.sent", "loadgen.rate40.succeeded", "loadgen.rate40.failed",
        "loadgen.rate60.sent", "loadgen.rate60.succeeded", "loadgen.rate60.failed",
        "loadgen.lag_ms_p99", "trace.overhead_pct", "trace.self_ms.http.simulate", "error_ratio",
    ),
}


def run_dd(workload, seed, seconds, trace):
    """Set up ``SETUPS`` child processes; the last one runs the workload.

    Set-up time is from spawning a child to its ``READY`` line: interpreter
    start, importing the program and one warm-up job; calibrated by the
    reference loop run in this process around each set-up.
    """
    command = [
        sys.executable, os.path.join(common.HERE, "ddrunner.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    setups, raw = [], []
    for index in range(SETUPS):
        last = index == SETUPS - 1
        before = calibrate.loop_seconds()
        start = perf_counter()
        child = subprocess.Popen(
            command + ([] if last else ["--setup-only"]), cwd=common.ROOT,
            env=common.program_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            raw.append(perf_counter() - start)
            # The last child starts its workload on this CPU once READY,
            # so the loop is not run again beside it.
            after = [] if last else [calibrate.loop_seconds()]
            setups.append(raw[-1] * calibrate.factor([before] + after))
            output = child.stdout.read() if last else ""
        finally:
            child.stdout.close()
            child.wait()
        if line.strip() != "READY" or child.returncode != 0:
            raise RuntimeError(f"{workload} child failed (exit {child.returncode})")
    result = json.loads(output.strip().splitlines()[-1])
    result["end_to_end"]["setup_s"] = (common.median(setups), len(setups))
    result["end_to_end"]["raw.setup_s"] = (common.median(raw), len(raw))
    result["end_to_end"]["peak_rss_mb"] = (result.pop("rss_mb") + common.peak_rss_mb(), 1)
    return result


def run_workload(workload, seed, seconds, trace):
    """Run one workload, print its metric lines and return its result."""
    end_to_end, per_layer = common.declared_metrics()
    if workload == "service-mix":
        import service_mix

        result = service_mix.run(seed, seconds, trace)
    else:
        result = run_dd(workload, seed, seconds, trace)

    for error in result.get("errors", []):
        print(f"check failed: {error}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    declared = per_layer if trace else end_to_end
    measured = result.get("per_layer" if trace else "end_to_end", {})
    if trace:
        measured["error_ratio"] = (common.ratio(failed, attempted), attempted)
    metrics = {}
    for name, unit in declared.items():
        value, samples = measured.get(name, (0.0, 0))
        metrics[name] = {"value": value, "unit": unit}
        off_path = trace and name not in LAYERS[workload]
        print(f"{name:34s} {value:14.4f} {unit:6s} n={samples}"
              + ("  (not on this workload's path)" if off_path else ""))
        if "raw." + name in measured:
            value, samples = measured["raw." + name]
            print(f"{'  uncalibrated':34s} {value:14.4f} {unit:6s} n={samples}")
    if not trace:
        print(f"{'error_ratio':34s} {common.ratio(failed, attempted):14.4f} ratio  n={attempted}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(common.ROOT, "src", "repro")):
        print("error: no program to measure: src/repro is missing", file=sys.stderr)
        return 2
    common.pin_to_one_cpu()
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0

    results = {}
    for workload in WORKLOADS:
        print(f"== {workload}")
        results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{workload}.{name}": metric
            for workload, result in results.items()
            for name, metric in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
