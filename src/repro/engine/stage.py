"""The uniform Stage protocol and per-frame FrameContext.

The simulated pipeline of Fig. 4 is a fixed graph of *stateful* hardware
blocks.  Each block is a :class:`Stage`: constructed once when the GPU
is built, reused for every frame, with an explicit per-frame lifecycle
(``begin_frame`` / work / ``end_frame``).  Stage *stats* counters are
cumulative over the stage's lifetime; per-frame figures come from the
:class:`~repro.engine.stats.StatsRegistry` snapshot-delta, so a stage
never resets its counters mid-run.

:class:`FrameContext` threads the per-frame inputs (command stream,
parameter buffer, clear color, frame index) through the graph instead of
ad-hoc locals, and collects the frame's tile-skip decisions.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class FrameContext:
    """Per-frame state threaded through the stage graph."""

    frame_index: int
    commands: object = None          # CommandStream for this frame
    clear_color: tuple = None
    parameter_buffer: object = None  # ParameterBuffer (stable across frames)
    skipped_tile_ids: list = dataclasses.field(default_factory=list)


class Stage:
    """Base class for persistent pipeline stages.

    Subclasses set :attr:`metrics_group` (the dotted-key prefix their
    counters register under) and expose a dataclass ``stats`` attribute
    whose int fields are the stage's cumulative activity counters.
    """

    #: Dotted-key prefix for this stage's counters (e.g. ``"vertex"``).
    metrics_group: str = None

    def register_metrics(self, registry) -> None:
        """Register this stage's counters once, at GPU construction."""
        if self.metrics_group is not None:
            registry.register_counters(self.metrics_group, self.stats)

    def counters(self) -> tuple:
        """The stats counters' current values, in field order."""
        return tuple(vars(self.stats).values())

    def add_counters(self, delta) -> None:
        """Add ``delta``, laid out as :meth:`counters`, to the stats."""
        stats = self.stats
        for name, value in zip(vars(stats), delta):
            setattr(stats, name, getattr(stats, name) + value)

    def begin_frame(self, ctx: FrameContext = None) -> None:
        """Reset per-frame working state (never the stats counters)."""

    def end_frame(self, ctx: FrameContext = None) -> None:
        """Frame teardown hook; default no-op."""

    def reset(self) -> None:
        """Zero the cumulative counters and per-frame working state,
        returning the stage to its just-constructed statistics state."""
        stats = getattr(self, "stats", None)
        if stats is not None:
            for field in dataclasses.fields(stats):
                setattr(stats, field.name, field.default)
        self.begin_frame(None)
