"""The benchmark's workloads: which cells each renders, and why.

Three simulation workloads render a fixed matrix of (game, technique)
cells in one process through ``repro.harness.run_workload``; the seed
does not change them.  The ``service`` workload drives a ``repro serve``
daemon with a request sequence drawn from the seed.
"""

from __future__ import annotations

import collections
import dataclasses
import random

#: The paper's ten games (Table II), in figure order.
GAMES = ("ccs", "cde", "coc", "ctr", "hop", "mst", "abi", "csn", "ter", "tib")

#: Games of the ``--quick`` smoke profile.
QUICK_GAMES = ("ccs", "hop")

#: Frames per golden point (``repro.harness.goldens.GOLDEN_FRAMES``).
GOLDEN_FRAMES = 8


@dataclasses.dataclass(frozen=True)
class SimWorkload:
    """A fixed cell matrix rendered serially in one fresh process."""

    name: str
    scale: str                 # GpuConfig preset: "small" or "benchmark"
    techniques: tuple
    frames: int
    culled: bool = False       # GpuConfig.occlusion_culling
    golden: bool = False       # compare against results/goldens

    def cells(self, quick: bool = False) -> list:
        """Every game under every technique, in figure order.  The order
        is fixed: peak RSS depends on it through allocator fragmentation
        (seeded shuffles of the games moved it by 11%), and the outputs
        never do."""
        games = QUICK_GAMES if quick else GAMES
        return [(game, technique) for game in games
                for technique in self.techniques]

    def num_frames(self, quick: bool = False) -> int:
        return 2 if quick else self.frames


@dataclasses.dataclass(frozen=True)
class ServiceWorkload:
    """One closed-loop client on one connection to a ``repro serve``."""

    name: str
    games: tuple
    techniques: tuple
    frames: int
    requests_quick: int
    workers: int = 1
    max_engines: int = 4

    def cells(self, quick: bool = False) -> list:
        games = QUICK_GAMES if quick else self.games
        return [(game, technique) for game in games
                for technique in self.techniques]

    def num_frames(self, quick: bool = False) -> int:
        return 2 if quick else self.frames

    def requests(self, seed: int, count: int, quick: bool = False) -> list:
        """``count`` cells for the client to request in order.

        Every third request repeats one of the ``max_engines`` most
        recently requested cells, a warm hit for an LRU engine pool of
        that size; the others name a cell outside them.  Each pick takes
        the least-requested candidate, ties broken by the seed.  So every
        seed requests each cell equally often with the same warm share,
        and the seed moves only the order: uniform draws moved median
        latency by 15% from seed to seed.
        """
        rng = random.Random(seed)
        cells = self.cells(quick)
        used = collections.Counter()
        recent, sequence = [], []
        for index in range(count):
            warm = index % 3 == 2
            candidates = ([c for c in cells if (c in recent) == warm]
                          or cells)
            fewest = min(used[c] for c in candidates)
            pick = rng.choice([c for c in candidates if used[c] == fewest])
            used[pick] += 1
            if pick in recent:
                recent.remove(pick)
            recent = (recent + [pick])[-self.max_engines:]
            sequence.append(pick)
        return sequence


SIM_WORKLOADS = {
    workload.name: workload for workload in (
        SimWorkload("suite", "small", ("baseline", "re", "te"),
                    GOLDEN_FRAMES, golden=True),
        SimWorkload("suite-culled", "small", ("baseline", "re", "te"),
                    GOLDEN_FRAMES, culled=True, golden=True),
        SimWorkload("hires", "benchmark", ("baseline", "re"), 6),
    )
}

SERVICE = ServiceWorkload(
    "service", ("ccs", "cde", "hop", "mst", "tib", "csn"),
    ("baseline", "re"), frames=4, requests_quick=30,
)

NAMES = tuple(SIM_WORKLOADS) + (SERVICE.name,)


def gpu_config(workload: SimWorkload):
    """The workload's ``GpuConfig``.  ``occlusion_culling`` is set only
    while the config still has that field; ``culling=absent`` is
    reported otherwise."""
    from repro.config import GpuConfig

    config = getattr(GpuConfig, workload.scale)()
    if workload.culled and culling_present():
        config = dataclasses.replace(config, occlusion_culling=True)
    return config


def culling_present() -> bool:
    from repro.config import GpuConfig

    return any(field.name == "occlusion_culling"
               for field in dataclasses.fields(GpuConfig))
