"""Declarative campaign specifications — the *what* of an experiment sweep.

A campaign spec names a cross-product of experiment *cells*: circuit
family × size × seed × repetition × :class:`~repro.dd.package.DDPackage`
configuration.  The spec is plain data (JSON, or TOML on interpreters
with :mod:`tomllib`), so a sweep lives next to the code as one reviewed,
versioned file instead of a nest of ad-hoc ``for`` loops in a benchmark
script.

The schema (``qdd-campaign-spec-v1``) is intentionally small::

    {
      "name": "example",
      "description": "...",
      "cells": {
        "families": [
          {"family": "qft", "sizes": [3, 4, 5], "mode": "simulate"},
          {"family": "grover", "sizes": [3, 4, 5], "params": {"marked": 1}}
        ],
        "seeds": [0, 1],
        "repetitions": 1,
        "shots": 0,
        "packages": [
          {"label": "kernels"},
          {"label": "gate-dd", "use_apply_kernels": false}
        ]
      },
      "execution": {"workers": 0, "cell_timeout": 120.0},
      "gates": [
        {"metric": "final_nodes", "tolerance_pct": 0.0}
      ]
    }

Unknown keys anywhere in the spec are rejected — a typoed option must
fail loudly at load time, not silently run the default sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import CampaignSpecError

__all__ = [
    "SPEC_FORMAT",
    "CELL_MODES",
    "GATE_DIRECTIONS",
    "PackageSpec",
    "FamilySpec",
    "GateSpec",
    "CampaignSpec",
    "load_spec",
    "parse_spec",
    "spec_digest",
]

SPEC_FORMAT = "qdd-campaign-spec-v1"

#: How a cell turns its circuit/vector into a decision diagram.
CELL_MODES = ("simulate", "functionality", "dense")

#: Which direction of metric drift a gate fails on.
GATE_DIRECTIONS = ("both", "increase", "decrease")

_VECTOR_SCHEMES = (None, "l2", "max-magnitude")
_REORDER_MODES = ("off", "manual", "pressure")


def _require_keys(mapping: Dict[str, Any], allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise CampaignSpecError(
            f"{where}: unknown key(s) {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


def _int_list(value: Any, where: str, minimum: int = 0) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise CampaignSpecError(f"{where} must be a non-empty list of integers")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise CampaignSpecError(f"{where} must contain only integers, got {item!r}")
        if item < minimum:
            raise CampaignSpecError(f"{where} entries must be >= {minimum}, got {item}")
        out.append(int(item))
    return tuple(out)


@dataclass(frozen=True)
class PackageSpec:
    """One :class:`~repro.dd.package.DDPackage` configuration axis value."""

    label: str
    use_apply_kernels: bool = True
    tolerance: Optional[float] = None
    vector_scheme: Optional[str] = None
    sanitize_every: Optional[int] = None
    budget_nodes: int = 0
    budget_bytes: int = 0
    budget_check_interval: Optional[int] = None
    reorder: str = "off"
    identity_skipping: bool = False

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "PackageSpec":
        if not isinstance(data, dict):
            raise CampaignSpecError(f"{where} must be an object")
        _require_keys(
            data,
            ("label", "use_apply_kernels", "tolerance",
             "vector_scheme", "sanitize_every", "budget_nodes", "budget_bytes",
             "budget_check_interval", "reorder", "identity_skipping"),
            where,
        )
        label = data.get("label")
        if not isinstance(label, str) or not label:
            raise CampaignSpecError(f"{where}: every package needs a non-empty 'label'")
        scheme = data.get("vector_scheme")
        if scheme not in _VECTOR_SCHEMES:
            raise CampaignSpecError(
                f"{where}: vector_scheme must be 'l2' or 'max-magnitude', "
                f"got {scheme!r}"
            )
        tolerance = data.get("tolerance")
        if tolerance is not None and (
            not isinstance(tolerance, (int, float)) or tolerance <= 0
        ):
            raise CampaignSpecError(f"{where}: tolerance must be a positive number")
        sanitize_every = data.get("sanitize_every")
        if sanitize_every is not None and (
            isinstance(sanitize_every, bool)
            or not isinstance(sanitize_every, int)
            or sanitize_every < 1
        ):
            raise CampaignSpecError(f"{where}: sanitize_every must be a positive integer")
        for key in ("budget_nodes", "budget_bytes"):
            value = data.get(key, 0)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise CampaignSpecError(f"{where}: {key} must be a non-negative integer")
        check_interval = data.get("budget_check_interval")
        if check_interval is not None and (
            isinstance(check_interval, bool)
            or not isinstance(check_interval, int)
            or check_interval < 1
        ):
            raise CampaignSpecError(
                f"{where}: budget_check_interval must be a positive integer"
            )
        reorder = data.get("reorder", "off")
        if reorder not in _REORDER_MODES:
            raise CampaignSpecError(
                f"{where}: reorder must be one of "
                f"{'/'.join(repr(m) for m in _REORDER_MODES)}, got {reorder!r}"
            )
        return cls(
            label=label,
            use_apply_kernels=bool(data.get("use_apply_kernels", True)),
            tolerance=float(tolerance) if tolerance is not None else None,
            vector_scheme=scheme,
            sanitize_every=sanitize_every,
            budget_nodes=int(data.get("budget_nodes", 0)),
            budget_bytes=int(data.get("budget_bytes", 0)),
            budget_check_interval=check_interval,
            reorder=reorder,
            identity_skipping=bool(data.get("identity_skipping", False)),
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "use_apply_kernels": self.use_apply_kernels,
            "tolerance": self.tolerance,
            "vector_scheme": self.vector_scheme,
            "sanitize_every": self.sanitize_every,
            "budget_nodes": self.budget_nodes,
            "budget_bytes": self.budget_bytes,
            "budget_check_interval": self.budget_check_interval,
            "reorder": self.reorder,
            "identity_skipping": self.identity_skipping,
        }


@dataclass(frozen=True)
class FamilySpec:
    """One circuit-family axis value with its sizes and builder params."""

    family: str
    sizes: Tuple[int, ...]
    label: Optional[str] = None
    mode: str = "simulate"
    shots: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "FamilySpec":
        if not isinstance(data, dict):
            raise CampaignSpecError(f"{where} must be an object")
        _require_keys(
            data, ("family", "sizes", "label", "mode", "shots", "params"), where
        )
        family = data.get("family")
        if not isinstance(family, str) or not family:
            raise CampaignSpecError(f"{where}: every entry needs a 'family' name")
        from repro.campaign.jobs import known_families

        if family not in known_families():
            raise CampaignSpecError(
                f"{where}: unknown family {family!r} "
                f"(known: {', '.join(sorted(known_families()))})"
            )
        mode = data.get("mode", "simulate")
        if mode not in CELL_MODES:
            raise CampaignSpecError(
                f"{where}: mode must be one of {', '.join(CELL_MODES)}, got {mode!r}"
            )
        shots = data.get("shots")
        if shots is not None and (
            isinstance(shots, bool) or not isinstance(shots, int) or shots < 0
        ):
            raise CampaignSpecError(f"{where}: shots must be a non-negative integer")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise CampaignSpecError(f"{where}: params must be an object")
        label = data.get("label")
        if label is not None and (not isinstance(label, str) or not label):
            raise CampaignSpecError(f"{where}: label must be a non-empty string")
        if not data.get("sizes"):
            raise CampaignSpecError(
                f"{where}: every family needs a non-empty 'sizes' list"
            )
        return cls(
            family=family,
            sizes=_int_list(data["sizes"], f"{where}.sizes", minimum=1),
            label=label,
            mode=mode,
            shots=shots,
            params=dict(params),
        )

    @property
    def display(self) -> str:
        return self.label or self.family

    def as_dict(self) -> Dict[str, Any]:
        return {
            "family": self.family,
            "sizes": list(self.sizes),
            "label": self.label,
            "mode": self.mode,
            "shots": self.shots,
            "params": dict(self.params),
        }


@dataclass(frozen=True)
class GateSpec:
    """A regression gate: how far ``metric`` may drift from the baseline.

    The allowed drift is ``max(tolerance_abs, |baseline| * tolerance_pct
    / 100)``; ``direction`` limits which sign of drift fails the gate.
    """

    metric: str
    tolerance_pct: float = 0.0
    tolerance_abs: float = 0.0
    direction: str = "both"

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "GateSpec":
        if not isinstance(data, dict):
            raise CampaignSpecError(f"{where} must be an object")
        _require_keys(
            data, ("metric", "tolerance_pct", "tolerance_abs", "direction"), where
        )
        metric = data.get("metric")
        if not isinstance(metric, str) or not metric:
            raise CampaignSpecError(f"{where}: every gate needs a 'metric' name")
        direction = data.get("direction", "both")
        if direction not in GATE_DIRECTIONS:
            raise CampaignSpecError(
                f"{where}: direction must be one of "
                f"{', '.join(GATE_DIRECTIONS)}, got {direction!r}"
            )
        tolerances = {}
        for key in ("tolerance_pct", "tolerance_abs"):
            value = data.get(key, 0.0)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise CampaignSpecError(f"{where}: {key} must be a number")
            if value < 0:
                raise CampaignSpecError(f"{where}: {key} must be >= 0, got {value}")
            tolerances[key] = float(value)
        return cls(metric=metric, direction=direction, **tolerances)

    def allowance(self, baseline: float) -> float:
        return max(self.tolerance_abs, abs(baseline) * self.tolerance_pct / 100.0)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "tolerance_pct": self.tolerance_pct,
            "tolerance_abs": self.tolerance_abs,
            "direction": self.direction,
        }


@dataclass(frozen=True)
class CampaignSpec:
    """A fully-validated campaign: axes, execution knobs, and gates."""

    name: str
    description: str
    families: Tuple[FamilySpec, ...]
    seeds: Tuple[int, ...]
    repetitions: int
    shots: int
    packages: Tuple[PackageSpec, ...]
    workers: int
    cell_timeout: float
    gates: Tuple[GateSpec, ...]

    def as_dict(self) -> Dict[str, Any]:
        """Canonical JSON-able form (also the digest input)."""
        return {
            "format": SPEC_FORMAT,
            "name": self.name,
            "description": self.description,
            "cells": {
                "families": [family.as_dict() for family in self.families],
                "seeds": list(self.seeds),
                "repetitions": self.repetitions,
                "shots": self.shots,
                "packages": [package.as_dict() for package in self.packages],
            },
            "execution": {
                "workers": self.workers,
                "cell_timeout": self.cell_timeout,
            },
            "gates": [gate.as_dict() for gate in self.gates],
        }

    @property
    def digest(self) -> str:
        return spec_digest(self)


def spec_digest(spec: CampaignSpec) -> str:
    """A stable identity for the spec — resume refuses a changed sweep."""
    canonical = json.dumps(spec.as_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_spec(data: Dict[str, Any]) -> CampaignSpec:
    """Validate a decoded spec document into a :class:`CampaignSpec`."""
    if not isinstance(data, dict):
        raise CampaignSpecError("a campaign spec must be a JSON/TOML object")
    _require_keys(
        data, ("format", "name", "description", "cells", "execution", "gates"),
        "spec",
    )
    fmt = data.get("format", SPEC_FORMAT)
    if fmt != SPEC_FORMAT:
        raise CampaignSpecError(
            f"unsupported spec format {fmt!r} (expected {SPEC_FORMAT!r})"
        )
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise CampaignSpecError("spec: a non-empty 'name' is required")
    if any(ch in name for ch in "/\\ \t\n"):
        raise CampaignSpecError(
            "spec: 'name' must not contain spaces or path separators"
        )
    description = data.get("description", "")
    if not isinstance(description, str):
        raise CampaignSpecError("spec: 'description' must be a string")

    cells = data.get("cells")
    if not isinstance(cells, dict):
        raise CampaignSpecError("spec: a 'cells' object is required")
    _require_keys(
        cells, ("families", "seeds", "repetitions", "shots", "packages"),
        "spec.cells",
    )
    raw_families = cells.get("families")
    if not isinstance(raw_families, list) or not raw_families:
        raise CampaignSpecError("spec.cells: a non-empty 'families' list is required")
    families = tuple(
        FamilySpec.from_dict(entry, f"spec.cells.families[{index}]")
        for index, entry in enumerate(raw_families)
    )
    labels = [family.display for family in families]
    if len(set(labels)) != len(labels):
        raise CampaignSpecError(
            "spec.cells.families: duplicate family labels — give repeated "
            "families distinct 'label's"
        )
    seeds = _int_list(cells.get("seeds", [0]), "spec.cells.seeds")
    repetitions = cells.get("repetitions", 1)
    if isinstance(repetitions, bool) or not isinstance(repetitions, int) or repetitions < 1:
        raise CampaignSpecError("spec.cells.repetitions must be a positive integer")
    shots = cells.get("shots", 0)
    if isinstance(shots, bool) or not isinstance(shots, int) or shots < 0:
        raise CampaignSpecError("spec.cells.shots must be a non-negative integer")
    raw_packages = cells.get("packages") or [{"label": "default"}]
    if not isinstance(raw_packages, list):
        raise CampaignSpecError("spec.cells.packages must be a list")
    packages = tuple(
        PackageSpec.from_dict(entry, f"spec.cells.packages[{index}]")
        for index, entry in enumerate(raw_packages)
    )
    package_labels = [package.label for package in packages]
    if len(set(package_labels)) != len(package_labels):
        raise CampaignSpecError("spec.cells.packages: duplicate package labels")

    execution = data.get("execution", {})
    if not isinstance(execution, dict):
        raise CampaignSpecError("spec.execution must be an object")
    _require_keys(execution, ("workers", "cell_timeout"), "spec.execution")
    workers = execution.get("workers", 0)
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 0:
        raise CampaignSpecError("spec.execution.workers must be a non-negative integer")
    cell_timeout = execution.get("cell_timeout", 120.0)
    if (
        isinstance(cell_timeout, bool)
        or not isinstance(cell_timeout, (int, float))
        or cell_timeout <= 0
    ):
        raise CampaignSpecError("spec.execution.cell_timeout must be a positive number")

    raw_gates = data.get("gates", [])
    if not isinstance(raw_gates, list):
        raise CampaignSpecError("spec.gates must be a list")
    gates = tuple(
        GateSpec.from_dict(entry, f"spec.gates[{index}]")
        for index, entry in enumerate(raw_gates)
    )
    gate_metrics = [gate.metric for gate in gates]
    if len(set(gate_metrics)) != len(gate_metrics):
        raise CampaignSpecError("spec.gates: duplicate gate for the same metric")

    return CampaignSpec(
        name=name,
        description=description,
        families=families,
        seeds=seeds,
        repetitions=repetitions,
        shots=shots,
        packages=packages,
        workers=workers,
        cell_timeout=float(cell_timeout),
        gates=gates,
    )


def load_spec(path: str) -> CampaignSpec:
    """Load and validate a campaign spec from a ``.json`` or ``.toml`` file."""
    if not os.path.exists(path):
        raise CampaignSpecError(f"campaign spec not found: {path}")
    lowered = path.lower()
    with open(path, "rb") as handle:
        raw = handle.read()
    if lowered.endswith(".toml"):
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python < 3.11
            raise CampaignSpecError(
                "TOML specs need Python 3.11+ (tomllib); use JSON instead"
            )
        try:
            data = tomllib.loads(raw.decode("utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as error:
            raise CampaignSpecError(f"{path}: invalid TOML: {error}")
    else:
        try:
            data = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CampaignSpecError(f"{path}: invalid JSON: {error}")
    spec = parse_spec(data)
    _resolve_relative_paths(spec, os.path.dirname(os.path.abspath(path)))
    return spec


def _resolve_relative_paths(spec: CampaignSpec, base_dir: str) -> None:
    """Resolve family ``params.path`` entries relative to the spec file."""
    for family in spec.families:
        path = family.params.get("path")
        if isinstance(path, str) and path and not os.path.isabs(path):
            family.params["path"] = os.path.normpath(os.path.join(base_dir, path))
