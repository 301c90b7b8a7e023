"""Declarative experiment descriptions.

An :class:`ExperimentSpec` names *what* to run — workloads, a list of
configuration overrides (composed with :func:`grid`, :func:`zip_axes`,
and :func:`cases`), the sweep engine, and the executor — without saying
*how*; expansion to concrete (workload, config) cells and execution are
the executor layer's job.  Specs are plain data: they round-trip through
JSON (:meth:`ExperimentSpec.from_file`) so the same grid can live in the
repo, on the CLI (``repro exp --spec FILE``), or inline in a benchmark.

The paper's design space maps directly onto the axes: codec x
decompression strategy x k-edge parameters x budget/granularity
(conf_date_OzturkSKK05, Figures 3-5)::

    spec = ExperimentSpec(
        workloads=["composite", "fsm"],
        base={"codec": "shared-dict", "decompression": "ondemand"},
        axes=grid(k_compress=[1, 2, 4, 8, "inf"]),
        engine="trace",
    )
    result = repro.api.run_experiment(spec, jobs=4)
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.config import SimulationConfig
from ..analysis.sweep import ENGINES, available_engines
from ..workloads.suite import WORKLOADS, Workload, get_workload

#: Config fields a spec may set (everything on SimulationConfig).
CONFIG_FIELDS = tuple(
    f.name for f in dataclasses.fields(SimulationConfig)
)


class SpecError(ValueError):
    """Raised for malformed experiment specs (unknown fields, bad axis
    shapes, unknown workloads/engines/executors)."""


def parse_k(value: object, *, field_name: str = "k") -> Optional[int]:
    """Normalise a k-edge parameter: ``"inf"``/``"none"``/``None`` mean
    k = infinity (never recompress); positive integers pass through;
    everything else (including 0) is rejected loudly.
    """
    if value is None:
        return None
    if isinstance(value, str):
        token = value.strip().lower()
        if token in ("inf", "none"):
            return None
        try:
            value = int(token)
        except ValueError:
            raise SpecError(
                f"invalid {field_name} value {value!r}: expected a "
                f"positive integer or 'inf'/'none'"
            ) from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(
            f"invalid {field_name} value {value!r}: expected a "
            f"positive integer or 'inf'/'none'"
        )
    if value < 1:
        raise SpecError(
            f"invalid {field_name} value {value}: k must be >= 1 "
            f"(use 'inf' or 'none' for k = infinity)"
        )
    return value


# ----------------------------------------------------------------------
# Axis combinators
# ----------------------------------------------------------------------


def _is_int(value: object) -> bool:
    """True for a plain integer (``bool`` is an int subclass; not here)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _axis_values(name: str, values: Any) -> List[Any]:
    """An axis's value list; a bare string or scalar is a spec error."""
    if isinstance(values, (str, bytes, Mapping)) or not isinstance(
        values, Iterable
    ):
        raise SpecError(
            f"axis '{name}' must be a list of values, "
            f"got {type(values).__name__}"
        )
    return list(values)


def _check_axis_fields(names: Sequence[str]) -> None:
    for name in names:
        if name not in CONFIG_FIELDS:
            raise SpecError(
                f"unknown config field '{name}'; "
                f"valid fields: {sorted(CONFIG_FIELDS)}"
            )


def grid(**axes: Sequence[Any]) -> List[Dict[str, Any]]:
    """Cartesian product of the given axes, in axis declaration order.

    ``grid(k_compress=[1, 2], codec=["lzw", "rle"])`` yields four
    override dicts: (1, lzw), (1, rle), (2, lzw), (2, rle).
    """
    _check_axis_fields(list(axes))
    names = list(axes)
    value_lists = [_axis_values(name, axes[name]) for name in names]
    for name, values in zip(names, value_lists):
        if not values:
            raise SpecError(f"axis '{name}' has no values")
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*value_lists)
    ]


def zip_axes(**axes: Sequence[Any]) -> List[Dict[str, Any]]:
    """Parallel (zipped) axes: the i-th override takes the i-th value of
    every axis.  All axes must have the same length."""
    _check_axis_fields(list(axes))
    if not axes:
        raise SpecError("zip_axes needs at least one axis")
    value_lists = {
        name: _axis_values(name, values) for name, values in axes.items()
    }
    lengths = {name: len(values) for name, values in value_lists.items()}
    if len(set(lengths.values())) != 1:
        raise SpecError(
            f"zip_axes requires equal-length axes, got {lengths}"
        )
    names = list(axes)
    return [
        dict(zip(names, combo))
        for combo in zip(*(value_lists[name] for name in names))
    ]


def cases(*overrides: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """An explicit list of override dicts (named design points)."""
    out: List[Dict[str, Any]] = []
    for override in overrides:
        if not isinstance(override, Mapping):
            raise SpecError(
                f"cases() takes mappings, got {type(override).__name__}"
            )
        _check_axis_fields(list(override))
        out.append(dict(override))
    return out


# ----------------------------------------------------------------------
# The spec
# ----------------------------------------------------------------------


@dataclass
class Cell:
    """One expanded (workload, config) point of an experiment grid."""

    index: int
    workload: str
    config: SimulationConfig


@dataclass
class ExperimentSpec:
    """A declarative experiment: workloads x config overrides.

    Attributes:
        workloads: registry names, or the string ``"all"``.
        axes: override dicts from :func:`grid`/:func:`zip_axes`/
            :func:`cases` (lists concatenate with ``+``); the default
            single empty override runs the base config once.
        base: config fields shared by every cell.
        engine: sweep engine name ("machine" or "trace").
        executor: executor name ("serial", "parallel", or "caching");
            ``None`` (the default) picks "parallel" when ``jobs`` > 1,
            else "serial".
        jobs: worker processes for the parallel executor.
        max_blocks: optional per-cell block budget.
        name: spec name, carried into the result-set metadata.
        store: persistent result-store directory (``repro.store``);
            ``""`` selects the default location, ``None`` leaves the
            choice to the runner (CLI flags / ``$REPRO_STORE_DIR``).
    """

    workloads: Union[str, Sequence[str]] = "all"
    axes: Sequence[Mapping[str, Any]] = field(
        default_factory=lambda: [{}]
    )
    base: Mapping[str, Any] = field(default_factory=dict)
    engine: str = "machine"
    executor: Optional[str] = None
    jobs: int = 1
    max_blocks: Optional[int] = None
    name: str = "experiment"
    store: Optional[str] = None

    def __post_init__(self) -> None:
        self._check_types()
        if self.engine not in ENGINES:
            raise SpecError(
                f"unknown sweep engine '{self.engine}'; "
                f"available: {tuple(available_engines())}"
            )
        from .executor import EXECUTORS  # late: avoid import cycle

        if self.jobs < 1:
            raise SpecError(f"jobs must be >= 1, got {self.jobs}")
        if self.executor is None:
            self.executor = "parallel" if self.jobs > 1 else "serial"
        if self.executor not in EXECUTORS:
            raise SpecError(
                f"unknown executor '{self.executor}'; "
                f"available: {EXECUTORS.names()}"
            )
        for name in self.workload_names():
            if name not in WORKLOADS:
                raise SpecError(
                    f"unknown workload '{name}'; "
                    f"available: {WORKLOADS.names()}"
                )
        # Fail fast on malformed configs at spec-build time, not midway
        # through a long grid.
        self.configs()

    def _check_types(self) -> None:
        """Reject wrong-typed fields (JSON specs are untrusted input) as
        :class:`SpecError` before a comparison can raise ``TypeError``."""

        def seq_of(value: Any, kind: type) -> bool:
            return isinstance(value, Sequence) and all(
                isinstance(item, kind) for item in value
            )

        for name, ok, expected in (
            ("workloads", isinstance(self.workloads, str)
             or seq_of(self.workloads, str), "a name or a list of names"),
            ("axes", seq_of(self.axes, Mapping), "a list of mappings"),
            ("base", isinstance(self.base, Mapping), "a mapping"),
            ("engine", isinstance(self.engine, str), "a string"),
            ("executor", self.executor is None
             or isinstance(self.executor, str), "a string or null"),
            ("jobs", _is_int(self.jobs), "an integer"),
            ("max_blocks", self.max_blocks is None
             or _is_int(self.max_blocks), "an integer or null"),
            ("name", isinstance(self.name, str), "a string"),
            ("store", self.store is None
             or isinstance(self.store, str), "a string or null"),
        ):
            if not ok:
                value = getattr(self, name)
                raise SpecError(
                    f"spec field '{name}' must be {expected}, got "
                    f"{type(value).__name__} {value!r}"
                )

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------

    def workload_names(self) -> List[str]:
        """The resolved workload name list ("all" expands the registry)."""
        if isinstance(self.workloads, str):
            if self.workloads == "all":
                return WORKLOADS.names()
            return [self.workloads]
        return list(self.workloads)

    def configs(self) -> List[SimulationConfig]:
        """One validated :class:`SimulationConfig` per override dict."""
        configs = []
        for override in self.axes:
            fields = {**dict(self.base), **dict(override)}
            unknown = [k for k in fields if k not in CONFIG_FIELDS]
            if unknown:
                raise SpecError(
                    f"unknown config field(s) {unknown}; "
                    f"valid fields: {sorted(CONFIG_FIELDS)}"
                )
            if "k_compress" in fields:
                fields["k_compress"] = parse_k(
                    fields["k_compress"], field_name="k_compress"
                )
            try:
                configs.append(SimulationConfig(**fields))
            except (TypeError, ValueError) as exc:
                # ConfigError is a ValueError; a wrong-typed value
                # (``"fault_cycles": "a"``) fails inside validation as
                # a TypeError.  Either way, name the fields.
                raise SpecError(f"invalid config {fields}: {exc}") from exc
        if not configs:
            raise SpecError("spec expands to zero configurations")
        return configs

    def cells(self) -> List[Cell]:
        """The full grid in deterministic, workload-major order."""
        configs = self.configs()
        out: List[Cell] = []
        for workload in self.workload_names():
            for config in configs:
                out.append(Cell(len(out), workload, config))
        return out

    def partitions(self) -> List[Tuple[str, List[SimulationConfig]]]:
        """Cells grouped by workload — the unit of parallel dispatch,
        preserving the trace-replay and shared-artifact reuse that works
        within one workload's grid row."""
        configs = self.configs()
        return [(name, configs) for name in self.workload_names()]

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Build a spec from a JSON-shaped mapping.

        ``axes`` may be ``{"grid": {...}}``, ``{"zip": {...}}``,
        ``{"cases": [...]}``, or a list of such blocks (concatenated).
        """
        if not isinstance(data, Mapping):
            raise SpecError(
                f"spec must be a mapping, got {type(data).__name__}"
            )
        known = {
            "workloads", "axes", "base", "engine", "executor",
            "jobs", "max_blocks", "name", "store",
        }
        unknown = [k for k in data if k not in known]
        if unknown:
            raise SpecError(
                f"unknown spec key(s) {unknown}; valid: {sorted(known)}"
            )
        kwargs: Dict[str, Any] = {
            k: data[k] for k in known & set(data) if k != "axes"
        }
        if "axes" in data:
            kwargs["axes"] = _expand_axes_blocks(data["axes"])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentSpec":
        """Load a JSON spec file."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise SpecError(f"cannot parse spec {path}: {exc}") from exc
        spec = cls.from_dict(data)
        if "name" not in data:
            spec.name = path
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """JSON-shaped form (axes already expanded to cases)."""
        return {
            "name": self.name,
            "workloads": self.workload_names(),
            "base": dict(self.base),
            "axes": {"cases": [dict(o) for o in self.axes]},
            "engine": self.engine,
            "executor": self.executor,
            "jobs": self.jobs,
            "max_blocks": self.max_blocks,
            "store": self.store,
        }


def _expand_axes_blocks(data: Any) -> List[Dict[str, Any]]:
    """Expand the JSON ``axes`` value into a list of override dicts."""
    if isinstance(data, Mapping):
        blocks: Sequence[Mapping[str, Any]] = [data]
    elif isinstance(data, Sequence) and not isinstance(data, str):
        blocks = list(data)
    else:
        raise SpecError(
            f"axes must be an axis block or a list of blocks, "
            f"got {type(data).__name__}"
        )
    out: List[Dict[str, Any]] = []
    for block in blocks:
        if not isinstance(block, Mapping) or len(block) != 1:
            raise SpecError(
                "each axes block must be exactly one of "
                '{"grid": {...}}, {"zip": {...}}, {"cases": [...]}'
            )
        op, value = next(iter(block.items()))
        try:
            if op == "grid":
                out.extend(grid(**value))
            elif op == "zip":
                out.extend(zip_axes(**value))
            elif op == "cases":
                out.extend(cases(*value))
            else:
                raise SpecError(
                    f"unknown axes operator '{op}'; "
                    f"valid: 'grid', 'zip', 'cases'"
                )
        except TypeError as exc:
            # ``**5`` / ``*5``: the block's value has the wrong shape.
            raise SpecError(f"malformed '{op}' axes block: {exc}") from None
    return out
