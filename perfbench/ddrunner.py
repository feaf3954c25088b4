"""One DD workload in its own process: sim-wide, verify-qft or reorder-sift.

Protocol with ``run.py``: once the program is imported and a warm-up job
has run, the process prints ``READY``; with ``--setup-only`` it exits
there.  Otherwise it runs passes over the workload's job list until
``--seconds`` are used, checks every result outside the timed region and
prints one JSON line.  With ``--trace 1`` every pass runs twice on the
same inputs, untraced and then traced; per-layer numbers come from the
traced copy and the difference is the tracing overhead.
"""

import argparse
import gc
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import numpy as np

from repro import (
    DDPackage,
    DDSimulator,
    check_equivalence_alternating,
    check_equivalence_construct,
    parse_qasm,
)
from repro.dd import sampling
from repro.dd.governance import MemoryBudget
from repro.verification.checker import build_functionality

import calibrate
import circuits
import common
import oracle
import tracing

SHOTS = 1024
WIDE_QUBITS = 10
WIDE_LAYERS = 3
CIRCUITS_PER_PASS = 2
CONSTRUCT_QUBITS = 6
ALTERNATING_QUBITS = 12
SIFT_SIZES = (10, 12)
PRESSURE_QUBITS = 8
PRESSURE_BUDGET = 48


class Job:
    """One unit of work: ``kind`` selects the runner, ``data`` its inputs."""

    def __init__(self, kind, **data):
        self.kind = kind
        self.data = data


class Outcome:
    def __init__(self, clock, gates, package, peak, final):
        self.seconds, self.raw_seconds = clock.seconds, clock.raw
        self.gates = gates
        self.stats = package.stats()
        self.peak = peak
        self.final = final
        self.errors = []
        self.ref_seconds = []
        self.sift = None


def gate_count(circuit):
    return sum(1 for operation in circuit if type(operation).__name__ == "GateOp")


def check_state(outcome, num_qubits, gates, vector, label):
    start = perf_counter()
    expected = oracle.simulate(num_qubits, gates)
    outcome.ref_seconds.append(perf_counter() - start)
    problem = oracle.compare(expected, vector)
    if problem:
        outcome.errors.append(f"{label}: {problem}")
    return expected


# ---------------------------------------------------------------------------
# job runners: the clock's segments cover only calls into the program
# ---------------------------------------------------------------------------
def run_simulation(job, span, clock):
    data = job.data
    with span("job"):
        with clock.segment():
            with span("qasm.parse"):
                circuit = parse_qasm(data["qasm"])
            package = DDPackage()
            simulator = DDSimulator(circuit, package=package, seed=0)
        while not simulator.at_end:
            with clock.segment(), span("simulation.step"):
                simulator.step_forward()
        with clock.segment(), span("dd.sampling"):
            counts = sampling.sample_counts(
                package, simulator.state, SHOTS, np.random.default_rng(data["sample_seed"])
            )
    outcome = Outcome(
        clock, gate_count(circuit), package, simulator.peak_node_count, simulator.node_count(),
    )
    n = data["qubits"]
    expected = check_state(
        outcome, n, data["gates"], package.to_vector(simulator.state, n), data["name"]
    )
    simulator.close()
    if sum(counts.values()) != SHOTS:
        outcome.errors.append(f"{data['name']}: counts sum to {sum(counts.values())}")
    impossible = [k for k in counts if abs(expected[int(k, 2)]) ** 2 < 1e-12]
    if impossible:
        outcome.errors.append(f"{data['name']}: sampled impossible outcomes {impossible[:3]}")
    return outcome


def run_construct(job, span, clock):
    data = job.data
    with span("job"):
        with clock.segment():
            with span("qasm.parse"):
                left_circuit = parse_qasm(data["left"])
            with span("qasm.parse"):
                right_circuit = parse_qasm(data["right"])
            package = DDPackage()
        with clock.segment(), span("verification.build"):
            left, peak_left = build_functionality(package, left_circuit, track_peak=True)
        with clock.segment(), span("verification.build"):
            right, peak_right = build_functionality(package, right_circuit, track_peak=True)
    # Paper Ex. 11: equal functionality means the same canonical root.
    equal = left.node is right.node and abs(complex(left.weight) - complex(right.weight)) <= 1e-9
    outcome = Outcome(
        clock, gate_count(left_circuit) + gate_count(right_circuit), package,
        max(peak_left, peak_right), package.node_count(right),
    )
    if not equal:
        outcome.errors.append(f"{data['name']}: functionalities differ")
    return outcome


def run_alternating(job, span, clock):
    data = job.data
    with span("job"):
        with clock.segment():
            with span("qasm.parse"):
                left = parse_qasm(data["left"])
            with span("qasm.parse"):
                right = parse_qasm(data["right"])
            package = DDPackage()
        with clock.segment(), span("verification.alternating"):
            result = check_equivalence_alternating(left, right, package=package)
    outcome = Outcome(
        clock, gate_count(left) + gate_count(right), package,
        result.max_nodes, result.trace[-1].node_count if result.trace else 0,
    )
    if result.equivalent != data["expected"]:
        outcome.errors.append(
            f"{data['name']}: equivalent={result.equivalent}, expected {data['expected']}"
        )
    return outcome


def run_ex12(job, span, clock):
    """Paper Ex. 12: the QFT-3 pair peaks at 9 nodes alternating, 21 built."""
    data = job.data
    with span("job"), clock.segment():
        with span("qasm.parse"):
            left = parse_qasm(data["left"])
        with span("qasm.parse"):
            right = parse_qasm(data["right"])
        package = DDPackage()
        with span("verification.alternating"):
            alternating = check_equivalence_alternating(left, right, package=package)
        with span("verification.construct"):
            construct = check_equivalence_construct(left, right, package=package)
    outcome = Outcome(
        clock, 2 * (gate_count(left) + gate_count(right)), package,
        construct.max_nodes, alternating.max_nodes,
    )
    found = (alternating.equivalent, alternating.max_nodes, construct.equivalent, construct.max_nodes)
    if found != (True, 9, True, 21):
        outcome.errors.append(f"Ex. 12: (alt eq, alt peak, construct eq, peak) = {found}")
    return outcome


def run_sift(job, span, clock):
    data = job.data
    with span("job"):
        with clock.segment():
            with span("qasm.parse"):
                circuit = parse_qasm(data["qasm"])
            package = DDPackage(reorder="manual")
            simulator = DDSimulator(circuit, package=package, seed=0)
        while not simulator.at_end:
            with clock.segment(), span("simulation.step"):
                simulator.step_forward()
        before = simulator.node_count()
        with clock.segment(), span("dd.reorder"):
            summary = package.reorder()
    outcome = Outcome(
        clock, gate_count(circuit), package, simulator.peak_node_count, simulator.node_count(),
    )
    outcome.sift = summary
    n = data["qubits"]
    check_state(outcome, n, data["gates"], package.to_vector(simulator.state, n), data["name"])
    if outcome.final > before:
        outcome.errors.append(f"{data['name']}: sifting grew the state {before} -> {outcome.final}")
    simulator.close()
    return outcome


def run_pressure(job, span, clock):
    """Sifts requested by the governor whenever the 48-node budget is tight."""
    data = job.data
    with span("job"):
        with clock.segment():
            with span("qasm.parse"):
                circuit = parse_qasm(data["qasm"])
            package = DDPackage(
                reorder="pressure", identity_skipping=True, use_apply_kernels=False,
                budget=MemoryBudget(max_nodes=PRESSURE_BUDGET, check_interval=1),
            )
            simulator = DDSimulator(circuit, package=package, seed=0)
        while not simulator.at_end:
            with clock.segment(), span("simulation.step"):
                simulator.step_forward()
    outcome = Outcome(
        clock, gate_count(circuit), package, simulator.peak_node_count, simulator.node_count(),
    )
    n = data["qubits"]
    check_state(outcome, n, data["gates"], package.to_vector(simulator.state, n), data["name"])
    simulator.close()
    return outcome


RUNNERS = {
    "simulate": run_simulation,
    "construct": run_construct,
    "alternating": run_alternating,
    "ex12": run_ex12,
    "sift": run_sift,
    "pressure": run_pressure,
}


# ---------------------------------------------------------------------------
# workloads: seeded job lists
# ---------------------------------------------------------------------------
def sim_wide_pass(seed, index):
    jobs = []
    for slot in range(CIRCUITS_PER_PASS):
        rng = circuits.rng_for("sim-wide", seed, index, slot)
        gates = circuits.wide_random(WIDE_QUBITS, WIDE_LAYERS, rng)
        jobs.append(Job(
            "simulate", name=f"wide-{index}-{slot}", qubits=WIDE_QUBITS, gates=gates,
            qasm=circuits.to_qasm(WIDE_QUBITS, gates), sample_seed=rng.randrange(1 << 30),
        ))
    return jobs


def verify_qft_pass(seed, index):
    def pair(n):
        return circuits.to_qasm(n, circuits.qft(n)), circuits.to_qasm(n, circuits.qft_compiled(n))

    rng = circuits.rng_for("verify-qft", seed, index)
    big, compiled = pair(ALTERNATING_QUBITS)
    broken = circuits.to_qasm(
        ALTERNATING_QUBITS,
        circuits.perturb_phase(circuits.qft_compiled(ALTERNATING_QUBITS), rng),
    )
    left, right = pair(CONSTRUCT_QUBITS)
    ex_left, ex_right = pair(3)
    return [
        Job("construct", name=f"qft{CONSTRUCT_QUBITS}-construct", left=left, right=right),
        Job("alternating", name=f"qft{ALTERNATING_QUBITS}-alternating", left=big,
            right=compiled, expected=True),
        Job("alternating", name=f"qft{ALTERNATING_QUBITS}-perturbed", left=big,
            right=broken, expected=False),
        Job("ex12", name="ex12", left=ex_left, right=ex_right),
    ]


def reorder_sift_pass(seed, index):
    jobs = []
    for n in SIFT_SIZES:
        gates = circuits.blocked_bell_pairs(n, circuits.rng_for("reorder-sift", seed, index, n))
        jobs.append(Job("sift", name=f"sift-n{n}", qubits=n, gates=gates,
                        qasm=circuits.to_qasm(n, gates)))
    n = PRESSURE_QUBITS
    gates = circuits.blocked_bell_pairs(n, circuits.rng_for("reorder-sift", seed, index, "pressure"))
    jobs.append(Job("pressure", name=f"pressure-n{n}", qubits=n, gates=gates,
                    qasm=circuits.to_qasm(n, gates)))
    return jobs


WORKLOADS = {
    "sim-wide": sim_wide_pass,
    "verify-qft": verify_qft_pass,
    "reorder-sift": reorder_sift_pass,
}


def _bell(kind, n):
    gates = circuits.blocked_bell_pairs(n, circuits.rng_for("warm-up"))
    return Job(kind, name=f"warm-{kind}", qubits=n, gates=gates, qasm=circuits.to_qasm(n, gates))


def _wide(n):
    gates = circuits.wide_random(n, 1, circuits.rng_for("warm-up"))
    return Job("simulate", name="warm-simulate", qubits=n, gates=gates,
               qasm=circuits.to_qasm(n, gates), sample_seed=0)


WARM_UPS = {
    "sim-wide": lambda: [_wide(3)],
    "verify-qft": lambda: [
        Job(kind, name=f"warm-{kind}", left=circuits.to_qasm(3, circuits.qft(3)),
            right=circuits.to_qasm(3, circuits.qft_compiled(3)), expected=True)
        for kind in ("construct", "alternating", "ex12")
    ],
    "reorder-sift": lambda: [_bell("sift", 4), _bell("pressure", 4)],
}


def warm_up(workload):
    """The workload's job kinds once at toy sizes, so lazy imports and
    process-wide caches exist before timing.  Results are checked in the
    measured passes, not here."""
    span = tracing.Tracer(False).span
    for job in WARM_UPS[workload]():
        RUNNERS[job.kind](job, span, calibrate.Clock())


# ---------------------------------------------------------------------------
# the measured loop and its summaries
# ---------------------------------------------------------------------------
def run_pass(jobs, tracer):
    """Run ``jobs``; return ``(seconds, raw seconds, outcomes)``.

    A pass's time is the sum of its jobs' clocks: calls into the program
    only, each segment calibrated by the reference loop on either side.
    """
    seconds = raw = 0.0
    outcomes = []
    for job in jobs:
        # Collect the previous job's garbage outside the timed region, so
        # each job starts from the same collector state.
        gc.collect()
        try:
            outcome = RUNNERS[job.kind](job, tracer.span, calibrate.Clock(tracer.span))
            seconds += outcome.seconds
            raw += outcome.raw_seconds
        except Exception:  # a failing job is counted, not fatal
            outcome = None
            print(f"{job.data['name']} raised:", file=sys.stderr)
            traceback.print_exc()
        outcomes.append(outcome)
    return seconds, raw, outcomes


def stat_ratio(outcomes, table):
    hits = sum(o.stats[table]["hits"] for o in outcomes)
    misses = sum(o.stats[table]["misses"] for o in outcomes)
    return common.ratio(hits, hits + misses)


def end_to_end(passes):
    """Calibrated end-to-end times, and the same from raw times."""
    metrics = {}
    for prefix, index, attribute in (("", 0, "seconds"), ("raw.", 1, "raw_seconds")):
        jobs = [getattr(o, attribute) for p in passes for o in p[2] if o is not None]
        metrics.update({
            prefix + "wall_s": (common.median([p[index] for p in passes]), len(passes)),
            prefix + "p50_ms": (common.median(jobs) * 1000.0, len(jobs)),
            prefix + "p95_ms": (common.percentile(jobs, 95) * 1000.0, len(jobs)),
        })
    return metrics


def per_layer(traced, untraced, spans):
    outcomes = [o for _, _, pass_outcomes in traced for o in pass_outcomes if o is not None]
    passes = max(1, len(traced))
    jobs = max(1, len(outcomes))

    def span_ms(name, q=50):
        values = tracing.durations(spans, name)
        return (common.percentile(values, q) * 1000.0 if values else 0.0, len(values))

    def per_pass(values):
        return (sum(values) / passes, passes)

    def per_job(values):
        return (sum(values) / jobs, jobs)

    complex_lookups = [o.stats["complex_table"]["hits"] + o.stats["complex_table"]["misses"]
                       for o in outcomes]
    sifts = [o.sift for o in outcomes if o.sift is not None]
    ref = [s for o in outcomes for s in o.ref_seconds]
    traced_time = sum(p[0] for p in traced)
    untraced_time = sum(p[0] for p in untraced)
    metrics = {
        "qc.qasm.parse_ms": span_ms("qasm.parse"),
        "simulation.step_ms_p50": span_ms("simulation.step"),
        "simulation.step_ms_p99": span_ms("simulation.step", 99),
        "dd.sampling.sample_ms": span_ms("dd.sampling"),
        "verification.build_ms": span_ms("verification.build"),
        "verification.alternating_ms": span_ms("verification.alternating"),
        "dd.reorder.sift_ms": span_ms("dd.reorder"),
        "dd.gates_per_s": (
            common.ratio(sum(o.gates for o in outcomes), sum(o.seconds for o in outcomes)),
            len(outcomes),
        ),
        "dd.peak_nodes": (max((o.peak for o in outcomes), default=0), len(outcomes)),
        "dd.final_nodes": per_pass([o.final for o in outcomes]),
        "dd.complex_table.entries": per_job([o.stats["complex_table"]["entries"] for o in outcomes]),
        "dd.complex_table.lookups": per_job(complex_lookups),
        "dd.complex_table.hit_ratio": (stat_ratio(outcomes, "complex_table"), len(outcomes)),
        "dd.unique.vector.entries": per_job([o.stats["unique_vector"]["entries"] for o in outcomes]),
        "dd.unique.vector.hit_ratio": (stat_ratio(outcomes, "unique_vector"), len(outcomes)),
        "dd.unique.matrix.entries": per_job([o.stats["unique_matrix"]["entries"] for o in outcomes]),
        "dd.unique.matrix.hit_ratio": (stat_ratio(outcomes, "unique_matrix"), len(outcomes)),
        "dd.governance.gc_runs": per_pass([o.stats["governance"]["gc_runs"] for o in outcomes]),
        "dd.governance.table_bytes": (
            max((o.stats["governance"]["table_bytes"] for o in outcomes), default=0), len(outcomes),
        ),
        "dd.reorder.runs": per_pass([o.stats["reorder"]["runs"] for o in outcomes]),
        "dd.reorder.swaps": per_pass([o.stats["reorder"]["swaps"] for o in outcomes]),
        "dd.reorder.nodes_before": per_pass([s["nodes_before"] for s in sifts]),
        "dd.reorder.nodes_after": per_pass([s["nodes_after"] for s in sifts]),
        "ref.dense_per_axis_s": (common.median(ref), len(ref)),
        "trace.overhead_pct": (
            100.0 * common.ratio(traced_time - untraced_time, untraced_time), len(traced),
        ),
    }
    for table in ("add", "apply", "mult-mm", "mult-mv"):
        metrics[f"dd.compute.{table}.hit_ratio"] = (stat_ratio(outcomes, table), len(outcomes))
    for name, seconds in tracing.self_times(spans).items():
        metrics[f"trace.self_ms.{name}"] = (1000.0 * seconds / jobs, jobs)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    warm_up(args.workload)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    make_pass = WORKLOADS[args.workload]
    untraced_tracer = tracing.Tracer(False)
    tracer = tracing.Tracer(bool(args.trace))
    untraced, traced = [], []
    start = perf_counter()
    index = 0
    while True:
        jobs = make_pass(args.seed, index)
        tracer.run_id = index
        # Alternate which copy runs first, so warming favours neither.
        order = (False, True) if index % 2 == 0 else (True, False)
        for traced_copy in order if args.trace else (False,):
            if traced_copy:
                traced.append(run_pass(jobs, tracer))
            else:
                untraced.append(run_pass(jobs, untraced_tracer))
        index += 1
        spent = perf_counter() - start
        per_iteration = spent / index
        if spent + per_iteration > args.seconds:
            break

    attempted = failed = 0
    errors = []
    for _, _, outcomes in untraced + traced:
        for outcome in outcomes:
            attempted += 1
            if outcome is None or outcome.errors:
                failed += 1
                errors += outcome.errors if outcome is not None else ["job raised"]
    for error in errors[:10]:
        print(f"check failed: {error}", file=sys.stderr)

    if args.trace:
        os.makedirs(common.OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(common.OUT_DIR, f"trace-{args.workload}-s{args.seed}.json"))
    ok_untraced = [(s, r, [o for o in outs if o is not None]) for s, r, outs in untraced]
    ok_traced = [(s, r, [o for o in outs if o is not None]) for s, r, outs in traced]
    result = {
        "attempted": attempted,
        "failed": failed,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "end_to_end": end_to_end(ok_untraced),
        "per_layer": per_layer(ok_traced, ok_untraced, tracer.spans) if args.trace else {},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
