"""Fault injection: every planted fault is detected, the service degrades.

The contract under test (ISSUE 5): the sanitizer detects 100% of the fault
classes in :mod:`repro.sanitizer.faults`, each by its *expected* check, and
a service facing corruption or dying workers degrades gracefully (503/504,
``dd_sanitize_violations_total`` metric, degraded ``/healthz``) instead of
serving wrong answers.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.dd import DDPackage
from repro.errors import (
    DDError,
    JobTimeoutError,
    SanitizerError,
    ServiceUnavailableError,
)
from repro.obs.metrics import MetricsRegistry
from repro.qc import library
from repro.sanitizer.faults import (
    EXPECTED_CHECKS,
    FAULT_CLASSES,
    FaultInjector,
    fault_corrupt_job,
    fault_crash_job,
    fault_hang_job,
    inject_fault,
)
from repro.service import Request, ServiceApp, ServiceConfig
from repro.service import workers as service_workers


def _seeded_package() -> DDPackage:
    """A package with live nodes, complex entries and GC roots to corrupt."""
    package = DDPackage()
    state = package.from_state_vector([0.5, 0.5j, -0.5, 0.5])
    package.incref(state)
    # A second root with a non-trivial weight, so root-targeting faults
    # (orphan-root-weight) always have a candidate.
    from repro.dd.edge import Edge

    scaled = Edge(state.node, package.complex_table.lookup(0.5 + 0.5j))
    package.incref(scaled)
    # A state whose edge weights are NOT pre-seeded specials (0.6/0.8 are
    # no one's seed), so weight-targeting pooled faults always have a
    # non-seed candidate.
    skew = package.from_state_vector([0.6, 0.8j, 0.0, 0.0])
    package.incref(skew)
    # A live matrix DD above level 0, so matrix-structure faults
    # (skip-across-level) always have a candidate.
    gate = package.single_qubit_gate(2, [[0, 1], [1, 0]], 1)
    package.incref(gate)
    # GC roots hold weak references; pin the edges so the nodes stay live
    # for the duration of the test.
    package._test_pin = (state, scaled, skew, gate)
    return package


# ----------------------------------------------------------------------
# every fault class, asserted individually
# ----------------------------------------------------------------------

class TestFaultDetection:
    def test_perturb_weight_detected(self):
        package = _seeded_package()
        inject_fault(package, "perturb-weight", seed=0)
        report = package.sanitize()
        assert "unique-key" in report.checks_failed, report.summary()

    def test_alias_unique_entry_detected(self):
        package = _seeded_package()
        inject_fault(package, "alias-unique-entry", seed=0)
        report = package.sanitize()
        assert "unique-duplicate" in report.checks_failed, report.summary()

    def test_skew_refcount_detected(self):
        package = _seeded_package()
        inject_fault(package, "skew-refcount", seed=0)
        report = package.sanitize()
        assert "root-count" in report.checks_failed, report.summary()

    def test_orphan_root_weight_detected(self):
        package = _seeded_package()
        inject_fault(package, "orphan-root-weight", seed=0)
        report = package.sanitize()
        assert "root-weight-missing" in report.checks_failed, report.summary()

    def test_unclamp_near_zero_detected(self):
        package = _seeded_package()
        inject_fault(package, "unclamp-near-zero", seed=0)
        report = package.sanitize()
        assert "weight-near-zero" in report.checks_failed, report.summary()

    def test_poison_nonfinite_detected(self):
        package = _seeded_package()
        inject_fault(package, "poison-nonfinite", seed=0)
        report = package.sanitize()
        assert "weight-nonfinite" in report.checks_failed, report.summary()

    def test_duplicate_complex_rep_detected(self):
        package = _seeded_package()
        inject_fault(package, "duplicate-complex-rep", seed=0)
        report = package.sanitize()
        assert "complex-duplicate" in report.checks_failed, report.summary()

    def test_pooled_dangling_successor_detected(self):
        package = _seeded_package()
        inject_fault(package, "pooled-dangling-successor", seed=0)
        report = package.sanitize()
        assert "pool-dangling-successor" in report.checks_failed, report.summary()

    def test_pooled_stale_weight_detected(self):
        package = _seeded_package()
        inject_fault(package, "pooled-stale-weight", seed=0)
        report = package.sanitize()
        assert "pool-stale-weight" in report.checks_failed, report.summary()

    def test_corrupt_order_map_detected(self):
        package = _seeded_package()
        inject_fault(package, "corrupt-order-map", seed=0)
        report = package.sanitize()
        assert "order-map" in report.checks_failed, report.summary()

    def test_skip_across_level_detected(self):
        package = _seeded_package()
        inject_fault(package, "skip-across-level", seed=0)
        report = package.sanitize()
        assert "skip-level-dense" in report.checks_failed, report.summary()

    def test_skip_across_level_refused_on_skipping_package(self):
        package = DDPackage(identity_skipping=True)
        gate = package.single_qubit_gate(2, [[0, 1], [1, 0]], 1)
        package.incref(gate)
        package._test_pin = gate
        with pytest.raises(DDError, match="dense"):
            inject_fault(package, "skip-across-level", seed=0)

    @pytest.mark.parametrize("fault", sorted(FAULT_CLASSES))
    @pytest.mark.parametrize("seed", [1, 7, 42, 12345])
    def test_detected_across_seeds(self, fault, seed):
        """No fault class escapes detection, whatever the seed picks."""
        package = _seeded_package()
        inject_fault(package, fault, seed=seed)
        report = package.sanitize()
        assert EXPECTED_CHECKS[fault] in report.checks_failed, (
            f"{fault} (seed={seed}) missed: {report.summary()}"
        )

    @pytest.mark.parametrize("fault", sorted(FAULT_CLASSES))
    def test_injection_is_deterministic(self, fault):
        """The same seed plants the same fault — failures reproduce.

        Node uids are process-global (they keep counting across packages),
        so compare the injection details modulo identity fields.
        """
        identity_keys = {"node", "clone", "uid", "root"}
        details = []
        checks = []
        for _ in range(2):
            package = _seeded_package()
            detail = inject_fault(package, fault, seed=99)
            details.append(
                {k: v for k, v in detail.items() if k not in identity_keys}
            )
            checks.append(package.sanitize().checks_failed)
        assert details[0] == details[1]
        assert checks[0] == checks[1]

    def test_sanitize_raises_with_report(self):
        package = _seeded_package()
        inject_fault(package, "poison-nonfinite", seed=0)
        with pytest.raises(SanitizerError) as excinfo:
            package.sanitize(raise_on_violation=True)
        assert excinfo.value.report is not None
        assert not excinfo.value.report.ok

    def test_unknown_fault_rejected(self):
        with pytest.raises(DDError, match="unknown fault"):
            inject_fault(_seeded_package(), "melt-cpu")

    def test_clean_package_stays_clean(self):
        """Control: the injector's *presence* plants nothing."""
        package = _seeded_package()
        FaultInjector(package, seed=0)  # constructed but never asked to inject
        assert package.sanitize().ok


# ----------------------------------------------------------------------
# service degradation: inline pool (workers=0)
# ----------------------------------------------------------------------

@pytest.fixture
def inline_app(monkeypatch):
    """An inline-mode app whose worker package sanitizes every operation."""
    monkeypatch.setenv("REPRO_SANITIZE_EVERY", "1")
    service_workers._reset_package()
    application = ServiceApp(
        ServiceConfig(workers=0), registry=MetricsRegistry(enabled=True)
    )
    yield application
    application.close()
    service_workers._reset_package()


def _corrupt_worker_package(fault, seed):
    """Plant live state into the inline worker package, then a fault.

    One-shot jobs release their roots on completion, so after a clean
    request the worker package has nothing left to corrupt — plant a
    pinned state first, exactly like a half-finished job would leave.
    """
    package = service_workers._package()
    state = package.from_state_vector([0.5, 0.5j, -0.5, 0.5])
    package.incref(state)
    package._test_pin = state
    inject_fault(package, fault, seed=seed)


def _post(app, path, payload):
    return app.handle(Request("POST", path, body=json.dumps(payload).encode()))


def _json(response):
    return json.loads(response.body.decode())


class TestInlineServiceDegradation:
    def test_corruption_surfaces_as_503_and_degraded_healthz(self, inline_app):
        app = inline_app
        # A first clean request builds (and proves clean) the worker package.
        response = _post(app, "/simulate", {"qasm": library.ghz_state(3).to_qasm()})
        assert response.status == 200
        assert _json(app.handle(Request("GET", "/healthz")))["status"] == "ok"

        _corrupt_worker_package("poison-nonfinite", seed=3)
        response = _post(app, "/simulate", {"qasm": library.qft(3).to_qasm()})
        assert response.status == 503
        error = _json(response)["error"]
        assert error["type"] == "SanitizerError"
        assert "sanitize" in error["message"]

        health = app.handle(Request("GET", "/healthz"))
        body = _json(health)
        assert health.status == 503
        assert body["status"] == "degraded"
        assert body["governance"]["sanitize_violations"] > 0

        metrics = app.handle(Request("GET", "/metrics")).body.decode()
        assert "dd_sanitize_violations_total" in metrics

    def test_degraded_health_is_sticky_until_restart(self, inline_app):
        app = inline_app
        _post(app, "/simulate", {"qasm": library.ghz_state(2).to_qasm()})
        _corrupt_worker_package("perturb-weight", seed=11)
        assert _post(
            app, "/simulate", {"qasm": library.qft(2).to_qasm()}
        ).status == 503
        # Even after the package is replaced (fresh worker), the operator
        # signal persists: corruption was observed in this process's life.
        service_workers._reset_package()
        assert _post(
            app, "/simulate", {"qasm": library.bell_pair().to_qasm()}
        ).status == 200
        body = _json(app.handle(Request("GET", "/healthz")))
        assert body["status"] == "degraded"
        assert body["governance"]["sanitize_violations"] > 0


# ----------------------------------------------------------------------
# service degradation: real worker pool (crash / hang / corrupt)
# ----------------------------------------------------------------------

@pytest.fixture
def chaos_app(monkeypatch):
    """A one-worker app with fault jobs enabled and a short watchdog."""
    monkeypatch.setenv("REPRO_ENABLE_FAULT_JOBS", "1")
    application = ServiceApp(
        ServiceConfig(workers=1, request_deadline=2.0),
        registry=MetricsRegistry(enabled=True),
    )
    yield application
    application.close()


class TestWorkerPoolChaos:
    def test_worker_crash_is_503_and_pool_recovers(self, chaos_app):
        pool = chaos_app.pool
        with pytest.raises(ServiceUnavailableError, match="worker died"):
            pool.submit("fault-crash", fault_crash_job)
        # The dead worker was replaced: the next real job succeeds.
        result = pool.submit(
            "simulate",
            service_workers.simulate_job,
            library.ghz_state(2).to_qasm(),
            0,
            0,
        )
        assert result["num_qubits"] == 2

    def test_worker_hang_is_killed_by_watchdog(self, chaos_app):
        pool = chaos_app.pool
        with pytest.raises(JobTimeoutError, match="request deadline"):
            pool.submit("fault-hang", fault_hang_job, 30.0)
        result = pool.submit(
            "simulate",
            service_workers.simulate_job,
            library.bell_pair().to_qasm(),
            0,
            0,
        )
        assert result["num_qubits"] == 2

    def test_worker_corruption_degrades_healthz(self, chaos_app):
        app = chaos_app
        with pytest.raises(SanitizerError):
            app.pool.submit("fault-corrupt", fault_corrupt_job, "perturb-weight", 5)
        health = app.handle(Request("GET", "/healthz"))
        body = _json(health)
        assert health.status == 503
        assert body["status"] == "degraded"
        assert body["governance"]["sanitize_violations"] > 0

    def test_crash_job_refuses_outside_worker_child(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKER_CHILD", raising=False)
        with pytest.raises(DDError, match="worker processes"):
            fault_crash_job()
