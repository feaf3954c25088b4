"""Helpers shared by the benchmark's processes (standard library only)."""

import json
import math
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def percentile(values, q):
    """Nearest-rank percentile ``q`` (0-100); 0.0 for an empty sequence."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(part, whole):
    return part / whole if whole else 0.0


def declared_metrics():
    """``(end_to_end, per_layer)`` as ``{name: unit}`` from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def program_env():
    """Environment for a process that imports the program from ``src/``."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pin_to_one_cpu():
    """Keep this process and every process it starts on one CPU.

    The host's cores drift in speed independently; on one core the
    reference loop (``calibrate.py``) sees the same drift as the program,
    and no job migrates between cores half-way.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb(pid="self"):
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid):
    """Direct children of ``pid`` (Linux ``/proc``)."""
    children = []
    for task in os.listdir(f"/proc/{pid}/task") if os.path.isdir(f"/proc/{pid}/task") else ():
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children += [int(p) for p in handle.read().split()]
        except OSError:
            pass
    return children
