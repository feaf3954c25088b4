"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest perfbench/tests -q

The end-to-end tests run every workload for one second, so the file takes
a few minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import circuits  # noqa: E402
import ddrunner  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import service_mix  # noqa: E402
import tracing  # noqa: E402


def test_oracle_matches_textbook_states():
    bell = oracle.simulate(2, [("h", (1,), ()), ("cx", (1, 0), ())])
    assert oracle.compare(np.array([1, 0, 0, 1]) / np.sqrt(2), bell) is None
    # Little-endian: x on qubit 0 of three sets basis index 1.
    assert oracle.simulate(3, [("x", (0,), ())])[1] == 1


def test_oracle_rejects_a_perturbed_amplitude():
    gates = circuits.wide_random(6, 3, circuits.rng_for("oracle-test"))
    state = oracle.simulate(6, gates)
    assert oracle.compare(state, state.copy()) is None
    perturbed = state.copy()
    perturbed[17] += 1e-6
    assert "amplitude 17" in oracle.compare(state, perturbed)


def test_oracle_agrees_with_the_program_on_a_wide_circuit():
    from repro import DDPackage, DDSimulator, parse_qasm

    gates = circuits.wide_random(8, 3, circuits.rng_for("agree"))
    package = DDPackage()
    simulator = DDSimulator(parse_qasm(circuits.to_qasm(8, gates)), package=package)
    simulator.run_all()
    assert oracle.compare(oracle.simulate(8, gates), package.to_vector(simulator.state, 8)) is None


def test_self_time_subtracts_direct_children():
    spans = [(0, None, 0, "job", 0.0, 10.0), (1, 0, 0, "step", 1.0, 4.0), (2, 1, 0, "inner", 2.0, 3.0)]
    assert tracing.self_times(spans) == {"job": 7.0, "step": 2.0, "inner": 1.0}


def test_calibrated_time_scales_by_the_reference_loop():
    with calibrate.Interval() as interval:
        calibrate.loop_seconds()
    assert len(interval.loops) == 2 and interval.raw > 0
    expected = interval.raw * calibrate.REFERENCE_S / (sum(interval.loops) / 2)
    assert interval.seconds == pytest.approx(expected)


def _digests(workload, seed):
    if workload == "service-mix":
        texts = [p["qasm"] for p in service_mix.hot_set(seed)]
        texts += [service_mix.fresh_request(seed, i)["qasm"] for i in range(4)]
    else:
        jobs = ddrunner.WORKLOADS[workload](seed, 0) + ddrunner.WORKLOADS[workload](seed, 1)
        texts = [job.data.get("qasm") or job.data["left"] + job.data["right"] for job in jobs]
    return [circuits.digest(text) for text in texts]


# Inputs that do not depend on the seed: the QFT pairs of verify-qft (its
# perturbed angle does) and the QFT-6 request in the service hot set.
FIXED_INPUTS = {"sim-wide": 0, "verify-qft": 3, "reorder-sift": 0, "service-mix": 1}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_same_circuits(workload):
    assert _digests(workload, 7) == _digests(workload, 7)
    shared = set(_digests(workload, 7)) & set(_digests(workload, 8))
    assert len(shared) == FIXED_INPUTS[workload]


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    samples = {}
    for line in lines[:-1]:
        match = re.match(r"(\S+)\s+\S+\s+\S+\s+n=(\d+)", line)
        if match:
            samples[match.group(1)] = int(match.group(2))
    return json.loads(lines[-1]), samples


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_every_metric_it_declares(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    result, samples = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0 and samples[name] > 0, name

    result, samples = _run(workload, 1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    missing = [name for name in run.LAYERS[workload] if samples.get(name, 0) == 0]
    assert not missing


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""
