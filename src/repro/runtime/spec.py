"""Declarative sweep specifications.

A :class:`SweepSpec` describes a whole grid of simulator runs — the shape
every figure of the paper's evaluation has (datasets × scales × seeds ×
attack/altruism/departure fractions).  It expands deterministically into a
list of :class:`SweepTask`, each fully described by a flat ``overrides``
mapping applied on top of :class:`repro.sim.scenario.ScenarioConfig`
defaults, plus a content-hashed **task key** derived from the fully
resolved config.  The key is what the checkpoint/resume layer
(:mod:`repro.runtime.store`) uses to decide whether a task's artifact
already exists, so renaming a run directory or reordering the grid never
re-runs finished work — and changing any config field (or the key schema
version) always does.

Specs load from TOML or JSON files or build up from ``--set key=v1,v2``
CLI flags; see ``docs/SWEEPS.md`` for the format.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.scenario import OnlineDistribution, ScenarioConfig

#: Bumped whenever task execution semantics change in a way that makes old
#: artifacts incomparable (a "code-relevant knob" of the task key).
TASK_KEY_VERSION = 1

#: ScenarioConfig fields that accept sequences (TOML/JSON lists arrive as
#: lists; the dataclass wants tuples).
_TUPLE_FIELDS = {"cdf_snapshot_days", "invariant_names"}

_SPEC_KEYS = {"name", "base", "grid", "configs", "seeds"}


def coerce_value(text: str) -> Any:
    """Parse one ``--set``/``--base`` value: int, float, bool, or string."""
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("none", "null"):
        return None
    for parser in (int, float):
        try:
            return parser(text)
        except ValueError:
            continue
    return text.strip()


def parse_set_flag(flag: str) -> Tuple[str, List[Any]]:
    """Parse one ``--set key=v1,v2,...`` grid axis."""
    key, sep, raw = flag.partition("=")
    if not sep or not key.strip() or not raw.strip():
        raise ValueError(
            f"malformed --set flag {flag!r}; expected key=value[,value...]"
        )
    return key.strip(), [coerce_value(part) for part in raw.split(",")]


def parse_base_flag(flag: str) -> Tuple[str, Any]:
    """Parse one ``--base key=value`` override applied to every task."""
    key, sep, raw = flag.partition("=")
    if not sep or not key.strip():
        raise ValueError(f"malformed --base flag {flag!r}; expected key=value")
    return key.strip(), coerce_value(raw)


def parse_seeds(text: str) -> List[int]:
    """Parse a seeds flag: ``0,1,5`` or a half-open range ``0:4``."""
    text = text.strip()
    if ":" in text:
        start_text, _, stop_text = text.partition(":")
        start, stop = int(start_text), int(stop_text)
        if stop <= start:
            raise ValueError(f"empty seed range {text!r}")
        return list(range(start, stop))
    seeds = [int(part) for part in text.split(",") if part.strip()]
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def _scenario_field_names() -> Dict[str, dataclasses.Field]:
    return {f.name: f for f in dataclasses.fields(ScenarioConfig)}


def build_config(overrides: Mapping[str, Any]) -> ScenarioConfig:
    """Build a validated :class:`ScenarioConfig` from a flat override map.

    Dotted keys reach into the nested model dataclasses: ``soup.epsilon``
    or ``activity.peak_per_day``.  Enum-valued fields accept their string
    value (``online_distribution = "peerson"``).  Unknown field names fail
    with the list of valid ones, so a typo in a sweep spec dies at
    expansion time.
    """
    fields = _scenario_field_names()
    direct: Dict[str, Any] = {}
    nested: Dict[str, Dict[str, Any]] = {}
    for key, value in overrides.items():
        if "." in key:
            head, _, rest = key.partition(".")
            nested.setdefault(head, {})[rest] = value
            continue
        if key not in fields:
            raise ValueError(
                f"unknown ScenarioConfig field {key!r}; "
                f"valid fields: {', '.join(sorted(fields))}"
            )
        if key == "online_distribution" and isinstance(value, str):
            value = OnlineDistribution(value)
        if key in _TUPLE_FIELDS and isinstance(value, list):
            value = tuple(value)
        direct[key] = value

    for head, sub in nested.items():
        if head not in ("soup", "activity"):
            raise ValueError(
                f"unknown nested override {head!r} (supported: soup.*, activity.*)"
            )
        if head in direct:
            raise ValueError(f"cannot mix {head!r} and {head}.* overrides")
        base = type(getattr(ScenarioConfig(), head))()
        valid = {f.name for f in dataclasses.fields(base)}
        unknown = sorted(set(sub) - valid)
        if unknown:
            raise ValueError(
                f"unknown {head}.* field(s) {unknown}; valid: {sorted(valid)}"
            )
        direct[head] = dataclasses.replace(base, **sub)

    return ScenarioConfig(**direct)


def _jsonable(value: Any) -> Any:
    """Reduce config values to canonical JSON-safe primitives for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


def config_fingerprint(config: ScenarioConfig) -> Dict[str, Any]:
    """The canonical document the task key hashes: the fully resolved
    config plus the code-relevant key version."""
    return {"task_key_version": TASK_KEY_VERSION, "config": _jsonable(config)}


def task_key(config: ScenarioConfig) -> str:
    doc = json.dumps(config_fingerprint(config), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class SweepTask:
    """One fully resolved unit of work in a sweep."""

    index: int
    overrides: Dict[str, Any]
    key: str

    @property
    def task_id(self) -> str:
        return f"t{self.index:04d}"

    @property
    def seed(self) -> int:
        return int(self.overrides.get("seed", 0))

    def build_config(self) -> ScenarioConfig:
        return build_config(self.overrides)

    def label(self) -> str:
        """Human-readable ``k=v`` summary of the task's overrides."""
        return " ".join(
            f"{key}={value}" for key, value in sorted(self.overrides.items())
        )


@dataclass
class SweepSpec:
    """A declarative grid of scenario runs.

    * ``base`` — overrides applied to every task.
    * ``grid`` — field name → list of values; the cartesian product over
      all axes (in insertion order) forms the cells.
    * ``configs`` — explicit override mappings, an alternative (or
      addition) to the grid: each entry is crossed with the grid and seeds.
    * ``seeds`` — every cell runs once per seed (innermost axis).
    """

    name: str = "sweep"
    base: Dict[str, Any] = field(default_factory=dict)
    grid: Dict[str, List[Any]] = field(default_factory=dict)
    configs: List[Dict[str, Any]] = field(default_factory=list)
    seeds: List[int] = field(default_factory=lambda: [0])

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "SweepSpec":
        unknown = sorted(set(data) - _SPEC_KEYS)
        if unknown:
            raise ValueError(
                f"unknown sweep spec key(s) {unknown}; valid: {sorted(_SPEC_KEYS)}"
            )
        grid = {key: list(values) for key, values in data.get("grid", {}).items()}
        for key, values in grid.items():
            if not values:
                raise ValueError(f"grid axis {key!r} has no values")
        seeds = [int(seed) for seed in data.get("seeds", [0])]
        if not seeds:
            raise ValueError("seeds must not be empty")
        return cls(
            name=str(data.get("name", "sweep")),
            base=dict(data.get("base", {})),
            grid=grid,
            configs=[dict(entry) for entry in data.get("configs", [])],
            seeds=seeds,
        )

    @classmethod
    def from_file(cls, path: "str | Path") -> "SweepSpec":
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() == ".toml":
            data = tomllib.loads(text)
        else:
            data = json.loads(text)
        spec = cls.from_mapping(data)
        if spec.name == "sweep":
            spec.name = path.stem
        return spec

    def to_mapping(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "base": dict(self.base),
            "grid": {key: list(values) for key, values in self.grid.items()},
            "configs": [dict(entry) for entry in self.configs],
            "seeds": list(self.seeds),
        }

    def spec_hash(self) -> str:
        doc = json.dumps(_jsonable(self.to_mapping()), sort_keys=True)
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]

    def expand(self) -> List[SweepTask]:
        """The deterministic task list: configs × grid (insertion order of
        axes) × seeds, each validated by building its ScenarioConfig."""
        rows: Sequence[Mapping[str, Any]] = self.configs or [{}]
        axes = list(self.grid.items())
        combos = list(
            itertools.product(*(values for _, values in axes))
        ) if axes else [()]

        tasks: List[SweepTask] = []
        seen: Dict[str, SweepTask] = {}
        for row in rows:
            for combo in combos:
                cell = {**self.base, **row}
                cell.update(
                    {key: value for (key, _), value in zip(axes, combo)}
                )
                for seed in self.seeds:
                    overrides = {**cell, "seed": int(seed)}
                    config = build_config(overrides)  # fail fast on bad grids
                    key = task_key(config)
                    if key in seen:
                        raise ValueError(
                            f"duplicate task in sweep: {overrides!r} collides "
                            f"with {seen[key].overrides!r}"
                        )
                    task = SweepTask(
                        index=len(tasks), overrides=overrides, key=key
                    )
                    seen[key] = task
                    tasks.append(task)
        if not tasks:
            raise ValueError("sweep spec expands to zero tasks")
        return tasks
