"""The frame-at-a-time memory models against per-access references.

``Cache.access_run`` decides a whole frame's LRU hits at once,
``Dram.charge`` charges a whole frame's transactions at once, and
``MemoryHierarchy.resolve`` chains them over a frame's access log.  Each
must equal the one-access-at-a-time model it replaces; those models live
here as the oracles.
"""

import collections
import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, GpuConfig
from repro.engine.session import RenderSession
from repro.harness.runner import run_workload
from repro.memory import ALL_STREAMS, Cache, Dram, MemoryHierarchy
from repro.memory.cache import line_addresses
from repro.memory.hierarchy import PB_L2_OFFSET
from repro.pipeline.tile_scheduler import RasterPipeline


class OracleCache:
    """Set-associative LRU over per-set OrderedDicts, one line at a time."""

    def __init__(self, config: CacheConfig) -> None:
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.sets = collections.defaultdict(collections.OrderedDict)
        self.accesses = self.hits = 0

    def miss(self, line: int) -> bool:
        ways = self.sets[line % self.num_sets]
        tag = line // self.num_sets
        self.accesses += 1
        if tag in ways:
            ways.move_to_end(tag)
            self.hits += 1
            return False
        if len(ways) >= self.ways:
            ways.popitem(last=False)
        ways[tag] = None
        return True


def cache_config(ways: int, sets: int) -> CacheConfig:
    return CacheConfig("test", 64 * ways * sets, line_bytes=64, ways=ways)


@st.composite
def line_streams(draw):
    """Streams over a small pool of lines, so lines repeat, sets collide
    and some lines come back after long windows."""
    pool = draw(st.lists(st.integers(0, 1 << 30), min_size=1, max_size=24,
                         unique=True))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=400))
    return [pool[pick] for pick in picks]


class TestCacheAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(ways=st.sampled_from((1, 2, 8)), sets=st.integers(1, 8),
           lines=line_streams())
    def test_miss_mask_and_stats_match(self, ways, sets, lines):
        config = cache_config(ways, sets)
        cache, oracle = Cache(config), OracleCache(config)
        expected = [oracle.miss(line) for line in lines]
        assert cache.access_run(lines).tolist() == expected
        assert cache.stats.accesses == oracle.accesses == len(lines)
        assert cache.stats.hits == oracle.hits
        assert cache.stats.misses == len(lines) - oracle.hits

    @pytest.mark.parametrize("ways", (1, 2, 8))
    @pytest.mark.parametrize("others", ("fewer", "as_many"))
    def test_long_window_between_touches(self, ways, others):
        # One set; between two touches of line 0, the other lines of the
        # set are touched hundreds of times.  Fewer than ``ways``
        # distinct others keep line 0 resident, ``ways`` of them evict it.
        count = ways - 1 if others == "fewer" else ways
        config = cache_config(ways, 1)
        middle = [1 + k % count for k in range(500)] if count else []
        lines = [0] + middle + [0]
        cache, oracle = Cache(config), OracleCache(config)
        missed = cache.access_run(lines)
        assert missed.tolist() == [oracle.miss(line) for line in lines]
        assert bool(missed[-1]) == (others == "as_many")

    def test_empty_stream(self):
        cache = Cache(cache_config(2, 4))
        missed = cache.access_run([])
        assert missed.shape == (0,) and missed.dtype == bool
        assert (cache.stats.accesses, cache.stats.misses) == (0, 0)

    def test_each_run_starts_empty(self):
        cache = Cache(cache_config(2, 4))
        assert cache.access_run([7]).tolist() == [True]
        assert cache.access_run([7]).tolist() == [True]


#: The pressure recurrence's floating-point fixed points.
FIXED_POINTS = (19.99999999999995, 20.0, 20.000000000000014)


def dram_at(pressure: float) -> Dram:
    dram = Dram(GpuConfig.small())
    dram.load_state_dict({"pressure": pressure, "stats": {}})
    return dram


transactions = st.lists(
    st.tuples(st.sampled_from((0, 1, 3, 64, 100, 256, 4096)),
              st.booleans(),
              st.integers(0, len(ALL_STREAMS) - 1)),
    max_size=800,
)


class TestDramChargeAgainstScalar:
    @settings(max_examples=60, deadline=None)
    @given(pressure=st.one_of(st.sampled_from((0.0,) + FIXED_POINTS),
                              st.floats(0.0, 40.0)),
           txns=transactions)
    def test_matches_scalar_calls(self, pressure, txns):
        scalar, batched = dram_at(pressure), dram_at(pressure)
        expected = [
            (scalar.write if write else scalar.read)(nbytes, ALL_STREAMS[s])
            for nbytes, write, s in txns
        ]
        stalls = batched.charge(
            np.array([nbytes for nbytes, _, _ in txns], dtype=np.int64),
            np.array([write for _, write, _ in txns], dtype=bool),
            np.array([s for _, _, s in txns], dtype=np.int64),
        )
        assert stalls.tolist() == expected
        assert batched.state_dict() == scalar.state_dict()
        assert batched.traffic.as_dict() == scalar.traffic.as_dict()

    @pytest.mark.parametrize("pressure", (0.0, 12.5, 33.0, 40.0))
    def test_past_the_fixed_point(self, pressure):
        scalar, batched = dram_at(pressure), dram_at(pressure)
        expected = [scalar.read(64, "texels") for _ in range(2000)]
        stalls = batched.charge(np.full(2000, 64), np.zeros(2000, bool),
                                np.full(2000, ALL_STREAMS.index("texels")))
        assert stalls.tolist() == expected
        assert batched.state_dict() == scalar.state_dict()
        assert batched.state_dict()["pressure"] in FIXED_POINTS

    def test_negative_size_rejected_before_any_charge(self):
        dram = dram_at(3.0)
        with pytest.raises(ValueError):
            dram.charge(np.array([64, -1]), np.zeros(2, bool),
                        np.zeros(2, np.int64))
        assert dram.state_dict() == dram_at(3.0).state_dict()


def oracle_resolve(config: GpuConfig, log: list) -> tuple:
    """Run a log through per-line oracle caches and scalar DRAM calls,
    in log order; returns (stall cycles per payer, dram, caches)."""
    caches = {
        "vertex": OracleCache(config.vertex_cache),
        "texture": OracleCache(config.texture_cache),
        "tile": OracleCache(config.tile_cache),
        "l2": OracleCache(config.l2_cache),
    }
    dram = Dram(config)
    stalls = collections.Counter()
    for kind, payload in log:
        if kind == "vertex":
            lines = line_addresses(payload, config.vertex_cache.line_bytes)
            misses = sum(caches["vertex"].miss(line)
                         for line in lines.tolist())
            stalls["vertex"] += dram.read(
                misses * config.vertex_cache.line_bytes, "vertices"
            )
        elif kind == "pb_write":
            for nbytes in payload:
                stalls["tiling"] += dram.write(nbytes, "parameter_write")
        elif kind == "pb_fetch":
            line_bytes = config.tile_cache.line_bytes
            for offset, size in zip(*payload):
                for line in range(offset // line_bytes,
                                  (offset + size - 1) // line_bytes + 1):
                    if (caches["tile"].miss(line)
                            and caches["l2"].miss(line + PB_L2_OFFSET)):
                        stalls["raster"] += dram.read(line_bytes,
                                                      "primitives")
        elif kind == "texels":
            for line in payload.tolist():
                if caches["texture"].miss(line) and caches["l2"].miss(line):
                    stalls["fragment"] += dram.read(
                        config.l2_cache.line_bytes, "texels"
                    )
        else:
            stalls["raster"] += dram.write(payload, "colors")
    return stalls, dram, caches


def payers():
    return {name: types.SimpleNamespace(stall_cycles=0)
            for name in ("vertex", "tiling", "raster", "fragment")}


def hierarchy_resolve(config: GpuConfig, log: list) -> tuple:
    memory = MemoryHierarchy(config)
    pay = payers()
    for kind, payload in log:
        if kind == "vertex":
            memory.fetch_vertices(memory.vertex_lines(payload),
                                  pay["vertex"])
        elif kind == "pb_write":
            memory.write_parameters(payload, pay["tiling"])
        elif kind == "pb_fetch":
            memory.fetch_parameters(*payload, pay["raster"])
        elif kind == "texels":
            memory.fetch_texels(payload, pay["fragment"])
        else:
            memory.write_colors(payload, pay["raster"])
    memory.resolve()
    return {name: p.stall_cycles for name, p in pay.items()}, memory


def texels(*lines) -> np.ndarray:
    return np.array(lines, dtype=np.int64)


#: One-set caches, so every interleaving choice shows in the hit counts.
TINY = dataclasses.replace(
    GpuConfig.small(),
    texture_cache=CacheConfig("texture", 64, ways=1),
    tile_cache=CacheConfig("tile", 64, ways=1),
    l2_cache=CacheConfig("l2", 128, ways=2),
)


class TestHierarchyAgainstOracleChain:
    def test_interleaved_pb_and_texel_misses_share_the_l2(self):
        log = [
            ("vertex", np.arange(0, 640, 32, dtype=np.int64)),
            ("pb_write", [80, 96]),
            ("texels", texels(1, 2)),
            # The PB line evicts texel line 1 from the 2-way L2 ...
            ("pb_fetch", ([0], [64])),
            # ... so texel line 1 misses there again.  Grouping the L2
            # stream by source instead (texels, then PB) would hit it.
            ("texels", texels(1)),
            ("pb_fetch", ([0, 64], [64, 100])),
            ("color", 1024),
        ]
        stalls, memory = hierarchy_resolve(TINY, log)
        expected, dram, caches = oracle_resolve(TINY, log)
        assert stalls == {name: expected[name] for name in stalls}
        assert memory.dram.state_dict() == dram.state_dict()
        assert memory.traffic.as_dict() == dram.traffic.as_dict()
        for name, cache in memory.caches.items():
            assert (cache.stats.accesses, cache.stats.hits) == (
                caches[name].accesses, caches[name].hits
            ), name
        assert memory.caches["l2"].stats.misses == 6

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("vertex"),
                  st.lists(st.integers(0, 4096), max_size=30)),
        st.tuples(st.just("pb_write"),
                  st.lists(st.integers(16, 300), max_size=5)),
        st.tuples(st.just("pb_fetch"),
                  st.lists(st.tuples(st.integers(0, 1024),
                                     st.integers(16, 300)), max_size=6)),
        st.tuples(st.just("texels"),
                  st.lists(st.integers(0, 40), max_size=30, unique=True)),
        st.tuples(st.just("color"), st.integers(0, 1024)),
    ), max_size=25))
    def test_random_logs_match(self, raw_log):
        log = []
        for kind, payload in raw_log:
            if kind == "vertex":
                payload = np.sort(np.array(payload, dtype=np.int64))
            elif kind == "pb_fetch":
                payload = ([o for o, _ in payload], [s for _, s in payload])
            elif kind == "texels":
                payload = np.array(payload, dtype=np.int64)
            log.append((kind, payload))
        stalls, memory = hierarchy_resolve(TINY, log)
        expected, dram, caches = oracle_resolve(TINY, log)
        assert stalls == {name: expected[name] for name in stalls}
        assert memory.dram.state_dict() == dram.state_dict()
        assert memory.traffic.as_dict() == dram.traffic.as_dict()
        for name, cache in memory.caches.items():
            assert (cache.stats.accesses, cache.stats.hits) == (
                caches[name].accesses, caches[name].hits
            ), name


def result_view(result) -> tuple:
    return (result.tile_color_crcs.tolist(), result.counters,
            result.total_cycles, result.total_energy_nj,
            result.total_traffic_bytes)


def test_failed_frame_then_reset_leaves_no_pending_accesses(monkeypatch):
    config = GpuConfig.small()
    session = RenderSession("ccs", "re", config=config, num_frames=3)
    render_tile = RasterPipeline.render_tile

    def fail_at_tile_9(self, tile_id, *args):
        if tile_id == 9:
            raise RuntimeError("injected raster fault")
        return render_tile(self, tile_id, *args)

    monkeypatch.setattr(RasterPipeline, "render_tile", fail_at_tile_9)
    with pytest.raises(RuntimeError, match="injected"):
        session.run()
    monkeypatch.undo()
    session.reset()
    warm = run_workload("ccs", "re", session=session)
    fresh = run_workload("ccs", "re", config=config, num_frames=3)
    assert result_view(warm) == result_view(fresh)
