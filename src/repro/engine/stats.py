"""Typed metric registry: named counters, snapshot-delta frame stats.

Every persistent stage registers its counters once under a dotted key
(``"vertex.shader_instructions"``, ``"cache.tile.misses"`` ...); the GPU
snapshots the registry at a frame boundary and diffs after the frame to
assemble :class:`~repro.pipeline.gpu.FrameStats` generically, instead of
hand-wiring each field.  The timing and energy models address counters
by the same keys (via ``FrameStats.metric``), so adding a counter is a
one-site change in the stage that owns it.
"""

from __future__ import annotations

import dataclasses

from ..errors import ReproError

#: Field types register_counters treats as counters (dataclass field
#: annotations arrive as strings under ``from __future__ import
#: annotations``).
_COUNTER_TYPES = (int, float, "int", "float")


@dataclasses.dataclass(frozen=True)
class MetricSpec:
    """Declaration of one named counter."""

    key: str                 # dotted name, e.g. "fragment.stall_cycles"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.key or " " in self.key:
            raise ReproError(f"invalid metric key {self.key!r}")


class StatsRegistry:
    """Named counter registry with snapshot/delta reads.

    Getters are zero-argument callables returning the counter's current
    cumulative value; registration happens once, reads happen per frame.
    """

    def __init__(self) -> None:
        self._getters: dict = {}
        self._specs: dict = {}
        self._fields: dict = {}     # key -> (stats object, field name)

    def register(self, key: str, getter, description: str = "") -> None:
        """Register one counter under ``key``; duplicate keys are bugs."""
        spec = MetricSpec(key, description)
        if key in self._getters:
            raise ReproError(
                f"metric {key!r} registered twice; metric keys must be "
                "unique per registry — the usual cause is two stages "
                "sharing a metrics_group"
            )
        self._getters[key] = getter
        self._specs[key] = spec

    def register_counters(self, group: str, stats, description: str = "") -> None:
        """Register every int/float field of a stats dataclass under
        ``group.<field>``."""
        for field in dataclasses.fields(stats):
            if field.type not in _COUNTER_TYPES:
                continue
            key = f"{group}.{field.name}"
            self.register(
                key, (lambda obj=stats, name=field.name: getattr(obj, name)),
                description,
            )
            self._fields[key] = (stats, field.name)

    def load_counters(self, snapshot: dict) -> None:
        """Set every counter registered by :meth:`register_counters` to
        its value in ``snapshot``.

        Checkpoint restore uses this for the stage counters, which a
        rebuilt engine starts from zero; counters read through plain
        getters (traffic and cache totals) belong to state the GPU
        restores itself and are left alone.
        """
        for key, (stats, name) in self._fields.items():
            if key in snapshot:
                setattr(stats, name, snapshot[key])

    @property
    def specs(self) -> tuple:
        """All registered :class:`MetricSpec`, in registration order."""
        return tuple(self._specs.values())

    def keys(self) -> tuple:
        return tuple(self._getters)

    def value(self, key: str):
        """Current cumulative value of one counter."""
        try:
            getter = self._getters[key]
        except KeyError:
            raise ReproError(f"unknown metric {key!r}") from None
        return getter()

    def snapshot(self) -> dict:
        """Current cumulative value of every counter."""
        return {key: getter() for key, getter in self._getters.items()}

    def delta(self, before: dict) -> dict:
        """Per-frame values: current counters minus a prior snapshot."""
        return {
            key: getter() - before.get(key, 0)
            for key, getter in self._getters.items()
        }

    def group_delta(self, group: str, cls, delta: dict):
        """Rebuild a stats dataclass from a delta's ``group.*`` keys."""
        prefix = f"{group}."
        return cls(**{
            field.name: delta[prefix + field.name]
            for field in dataclasses.fields(cls)
            if field.type in _COUNTER_TYPES
        })
