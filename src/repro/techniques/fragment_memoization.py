"""PFR-aided Fragment Memoization (Arnau et al., modeled per Section V-A).

The scheme hashes every fragment's shader inputs (interpolated varyings,
drawcall constants, shader id — screen coordinates excluded) into a
32-bit signature and looks it up in a small set-associative LUT; a hit
skips the fragment shader and its texture fetches.

Because the inter-frame reuse distance is a whole frame, the scheme only
works on top of Parallel Frame Rendering (PFR): frames render in pairs
with *tiles synchronized*, so when the odd frame of a pair shades tile T
the LUT still holds what the even frame inserted for tile T and its
recent neighbours.  Even frames find their predecessor's values already
evicted — halving the detectable redundancy, the asymmetry the paper
highlights.  The model captures both effects:

* even frames: all fragments shade; their hashes are recorded per tile;
* odd frames: a fragment of tile T hits iff its hash survives a
  set-associative LRU LUT filled with the even frame's fragments from a
  window of tiles ending at T.  The window is sized so the window's
  fragment population matches the LUT capacity shared by two frames
  rendering in parallel; per-set conflicts then discard the realistic
  fraction of entries (the paper: a space-limited LUT captures ~60% of
  the potential).

The paper's configuration: 2048-entry, 4-way LUT, 32-bit hashes.

Colors are always computed functionally; memoization changes only the
activity counters (fragments shaded, texture traffic), which is what
Fig. 16 measures.  Hash collisions therefore cannot corrupt the image in
the model, but the 32-bit hash is faithful so hit rates are realistic.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..config import GpuConfig
from .base import Technique

_FNV_PRIME = np.uint32(0x01000193)
_FNV_BASIS = np.uint32(0x811C9DC5)


def fragment_input_hashes(state, varyings: dict) -> np.ndarray:
    """32-bit signatures of each fragment's shader inputs.

    Vectorized FNV-1a over the fragment's interpolated varyings (bit
    patterns of their float32 components), seeded with a per-drawcall
    hash of the constants block and the shader id.  The ``_screen``
    pseudo-varying is excluded, as in the original proposal.
    """
    seed = np.uint32(
        zlib_crc(state.constants_bytes(), state.shader.program_id)
    )
    columns = []
    for name in sorted(varyings):
        if name == "_screen":
            continue
        columns.append(np.ascontiguousarray(
            varyings[name], dtype=np.float32
        ).view(np.uint32))
    count = len(varyings["_screen"])
    hashes = np.full(count, seed ^ _FNV_BASIS, dtype=np.uint32)
    with np.errstate(over="ignore"):
        for column in columns:
            for component in range(column.shape[1]):
                hashes = (hashes ^ column[:, component]) * _FNV_PRIME
    return _fmix32(hashes)


def _fmix32(hashes: np.ndarray) -> np.ndarray:
    """Murmur3 avalanche finalizer.

    Raw FNV leaves the low bits of smooth float inputs (adjacent uv
    values) poorly mixed, which would alias many fragments into the same
    LUT set; the finalizer gives every input bit influence over the set
    index, as a hardware hash-unit design would.
    """
    with np.errstate(over="ignore"):
        hashes = hashes ^ (hashes >> np.uint32(16))
        hashes = hashes * np.uint32(0x85EBCA6B)
        hashes = hashes ^ (hashes >> np.uint32(13))
        hashes = hashes * np.uint32(0xC2B2AE35)
        hashes = hashes ^ (hashes >> np.uint32(16))
    return hashes


def zlib_crc(data: bytes, extra: int = 0) -> int:
    import zlib

    return zlib.crc32(data, extra & 0xFFFFFFFF) & 0xFFFFFFFF


@dataclasses.dataclass
class MemoStats:
    fragments_seen: int = 0
    fragments_hit: int = 0
    lut_lookups: int = 0
    lut_insertions: int = 0


class FragmentMemoization(Technique):
    """Two-frame PFR memoization with a set-associative signature LUT."""

    name = "memo"

    def __init__(self, config: GpuConfig) -> None:
        super().__init__()
        self.config = config
        if config.memo_lut_entries % config.memo_lut_ways != 0:
            raise ValueError("LUT entries must divide evenly into ways")
        self.num_sets = config.memo_lut_entries // config.memo_lut_ways
        self.ways = config.memo_lut_ways
        # Tiles of the even frame whose entries can still be resident
        # when the odd frame reaches tile T: the LUT is shared by two
        # frames inserting in parallel, so half its capacity worth of
        # the even frame's most recent tiles.
        self.window_tiles = max(
            1, config.memo_lut_entries // (2 * config.pixels_per_tile)
        )
        self.stats = MemoStats()
        self._odd_frame = False
        self._even_tile_hashes: dict = {}   # tile_id -> list of arrays
        self._survivor_cache: dict = {}     # tile_id -> survivor array

    def begin_frame(self, frame_index: int, has_uploads: bool) -> None:
        self._odd_frame = frame_index % 2 == 1
        self._survivor_cache = {}
        if not self._odd_frame:
            self._even_tile_hashes = {}

    # Fragment-stage hook ---------------------------------------------------
    def memo_filter(self, state, varyings: dict) -> int:
        hashes = fragment_input_hashes(state, varyings)
        count = len(hashes)
        tile_id = self._tile_of(varyings)
        self.stats.fragments_seen += count
        self.stats.lut_lookups += count
        if not self._odd_frame:
            self._even_tile_hashes.setdefault(tile_id, []).append(hashes)
            self.stats.lut_insertions += count
            return 0
        survivors = self._survivors_for(tile_id)
        hits = int(np.isin(hashes, survivors).sum())
        self.stats.fragments_hit += hits
        return hits

    def _tile_of(self, varyings: dict) -> int:
        screen = varyings["_screen"]
        x = int(screen[0, 0])
        y = int(screen[0, 1])
        size = self.config.tile_size
        return (y // size) * self.config.tiles_x + (x // size)

    # LUT residency model ---------------------------------------------------
    def _survivors_for(self, tile_id: int) -> np.ndarray:
        """Even-frame hashes resident when the paired odd frame shades
        ``tile_id``: the last ``ways`` distinct tags per set among the
        even frame's fragments from the trailing tile window."""
        cached = self._survivor_cache.get(tile_id)
        if cached is not None:
            return cached
        window = []
        for t in range(tile_id - self.window_tiles + 1, tile_id + 1):
            window.extend(self._even_tile_hashes.get(t, ()))
        if not window:
            survivors = np.empty(0, dtype=np.uint32)
        else:
            survivors = self._lru_survivors(np.concatenate(window))
        self._survivor_cache[tile_id] = survivors
        return survivors

    def _lru_survivors(self, stream: np.ndarray) -> np.ndarray:
        """Per-set insertion-order LRU: the last ``ways`` distinct tags
        inserted into each set survive."""
        recency = stream[::-1]
        _, first_index = np.unique(recency, return_index=True)
        unique_by_recency = recency[np.sort(first_index)]
        sets = unique_by_recency % np.uint32(self.num_sets)
        order = np.argsort(sets, kind="stable")
        sorted_sets = sets[order]
        group_starts = np.searchsorted(sorted_sets, sorted_sets)
        rank_in_set = np.arange(len(sorted_sets)) - group_starts
        keep = rank_in_set < self.ways
        return unique_by_recency[order[keep]]

    def state_dict(self) -> dict:
        """The even frame's recorded hashes must survive a restore that
        lands on the odd frame of a PFR pair.  Dict keys become strings
        in the checkpoint codec, so tile ids are stored as pairs."""
        return {
            "odd_frame": self._odd_frame,
            "even_tile_hashes": [
                [tile_id, list(arrays)]
                for tile_id, arrays in self._even_tile_hashes.items()
            ],
            "stats": dataclasses.asdict(self.stats),
        }

    def load_state_dict(self, state: dict) -> None:
        self._odd_frame = bool(state["odd_frame"])
        self._survivor_cache = {}
        self._even_tile_hashes = {
            int(tile_id): [np.asarray(a, dtype=np.uint32) for a in arrays]
            for tile_id, arrays in state["even_tile_hashes"]
        }
        for name, value in state["stats"].items():
            setattr(self.stats, name, int(value))

    @property
    def lut_occupancy(self) -> int:
        """Survivor count for the highest recorded tile (diagnostics)."""
        if not self._even_tile_hashes:
            return 0
        last_tile = max(self._even_tile_hashes)
        return len(self._survivors_for(last_tile))

    @classmethod
    def stages_bypassed(cls) -> tuple:
        return ("fragment_processing",)
