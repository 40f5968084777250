"""GPU configuration: the simulation parameters of Table I.

:class:`GpuConfig` gathers every knob of the simulated ARM Mali-450-like
tile-based-rendering GPU — screen geometry, clock, memory-system shape,
queue depths, per-stage throughputs — plus the parameters of the Rendering
Elimination hardware added by the paper (Signature Buffer, CRC LUT block
size, Overlapped-Tiles queue depth).

The paper simulates a 1196x768 screen with 16x16-pixel tiles.  Rendering
that many pixels functionally in pure Python for hundreds of frames is
slow, so presets are provided at several scales; redundancy ratios are
resolution-independent because workloads place geometry in normalized
screen coordinates.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

from .errors import ConfigError


@dataclasses.dataclass(frozen=True)
class CacheConfig:
    """Geometry of one set-associative cache (a row of Table I)."""

    name: str
    size_bytes: int
    line_bytes: int = 64
    ways: int = 2
    banks: int = 1
    latency_cycles: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ConfigError(
                f"cache {self.name!r}: size {self.size_bytes} is not a "
                f"multiple of line*ways ({self.line_bytes}*{self.ways})"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclasses.dataclass(frozen=True)
class QueueConfig:
    """Depth and entry size of one inter-stage hardware queue."""

    name: str
    entries: int
    entry_bytes: int


@dataclasses.dataclass(frozen=True)
class GpuConfig:
    """Full configuration of the simulated TBR GPU (Table I).

    Instances are immutable; use :func:`dataclasses.replace` to derive
    variants (the ablation benchmarks do this for tile size, LUT block
    size and OT-queue depth sweeps).
    """

    # Tech specs
    clock_mhz: int = 400
    voltage_v: float = 1.0
    technology_nm: int = 32

    # Screen / tiles
    screen_width: int = 1196
    screen_height: int = 768
    tile_size: int = 16

    # Main memory (dual-channel LPDDR3-like)
    dram_latency_min_cycles: int = 50
    dram_latency_max_cycles: int = 100
    dram_bytes_per_cycle: int = 4
    dram_size_mb: int = 1024

    # Queues
    vertex_queues: QueueConfig = QueueConfig("vertex", 16, 136)
    triangle_queue: QueueConfig = QueueConfig("triangle", 16, 388)
    tile_queue: QueueConfig = QueueConfig("tile", 16, 388)
    fragment_queue: QueueConfig = QueueConfig("fragment", 64, 233)

    # Caches
    vertex_cache: CacheConfig = CacheConfig("vertex", 4 * 1024, ways=2)
    texture_cache: CacheConfig = CacheConfig("texture", 8 * 1024, ways=2)
    num_texture_caches: int = 4
    tile_cache: CacheConfig = CacheConfig("tile", 128 * 1024, ways=8, banks=8)
    l2_cache: CacheConfig = CacheConfig(
        "l2", 256 * 1024, ways=8, banks=8, latency_cycles=2
    )
    color_buffer: CacheConfig = CacheConfig("color", 1024, ways=1)
    depth_buffer: CacheConfig = CacheConfig("depth", 1024, ways=1)

    # Non-programmable stage throughputs
    triangles_per_cycle: int = 1          # primitive assembly
    raster_attributes_per_cycle: int = 16  # rasterizer
    early_z_quads_in_flight: int = 32

    # Programmable stages
    num_vertex_processors: int = 1
    num_fragment_processors: int = 4

    # Rendering Elimination hardware (Section III)
    signature_bits: int = 32
    crc_block_bytes: int = 8      # Compute CRC subblock size (8 x 1-KB LUTs)
    ot_queue_entries: int = 64    # Overlapped Tiles queue depth
    re_refresh_period_frames: int = 0  # 0 = never force a refresh frame
    # Signature-buffer compare distance: 2 under double buffering
    # (Section IV-C), 1 for the single-buffer ablation.  Also the number
    # of warm-up frames that cannot match (no reference bank yet).
    signature_compare_distance: int = 2

    # Transaction Elimination / Fragment Memoization models
    memo_lut_entries: int = 2048
    memo_lut_ways: int = 4
    memo_hash_bits: int = 32
    memo_frames_in_parallel: int = 2

    def __post_init__(self) -> None:
        if self.tile_size <= 0:
            raise ConfigError("tile_size must be positive")
        if self.screen_width <= 0 or self.screen_height <= 0:
            raise ConfigError("screen dimensions must be positive")
        if self.crc_block_bytes <= 0 or self.crc_block_bytes % 4 != 0:
            raise ConfigError("crc_block_bytes must be a positive multiple of 4")
        if self.dram_latency_min_cycles > self.dram_latency_max_cycles:
            raise ConfigError("dram latency min exceeds max")
        if self.num_fragment_processors <= 0 or self.num_vertex_processors <= 0:
            raise ConfigError("processor counts must be positive")
        if self.signature_compare_distance < 1:
            raise ConfigError("signature_compare_distance must be >= 1")

    # ------------------------------------------------------------------
    # Serialization (checkpoint manifests; no pickle anywhere)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (nested cache/queue configs become dicts)."""
        return dataclasses.asdict(self)

    def digest(self) -> str:
        """Short stable fingerprint of every field, for run-cache keys,
        journal records and per-cell checkpoint file names.  Two configs
        share a digest iff their ``repr`` (every field) is identical."""
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "GpuConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Manifests and checkpoints written before the binning-time
        occlusion pass was removed carry ``occlusion_culling``; ``False``
        is dropped, ``True`` is refused, since nothing can honour it.
        """
        data = dict(data)
        if data.pop("occlusion_culling", False):
            raise ConfigError(
                "occlusion_culling was removed; this config enables it "
                "and cannot be reproduced"
            )
        for field in dataclasses.fields(cls):
            value = data.get(field.name)
            if not isinstance(value, dict):
                continue
            if field.type in (QueueConfig, "QueueConfig"):
                data[field.name] = QueueConfig(**value)
            elif field.type in (CacheConfig, "CacheConfig"):
                data[field.name] = CacheConfig(**value)
        return cls(**data)

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def tiles_x(self) -> int:
        """Number of tile columns (partial right-edge tiles count)."""
        return math.ceil(self.screen_width / self.tile_size)

    @property
    def tiles_y(self) -> int:
        """Number of tile rows (partial bottom-edge tiles count)."""
        return math.ceil(self.screen_height / self.tile_size)

    @property
    def num_tiles(self) -> int:
        return self.tiles_x * self.tiles_y

    @property
    def pixels_per_tile(self) -> int:
        return self.tile_size * self.tile_size

    @property
    def signature_buffer_bytes(self) -> int:
        """On-chip storage for two frames' worth of tile signatures."""
        return 2 * self.num_tiles * (self.signature_bits // 8)

    @property
    def crc_lut_bytes(self) -> int:
        """Total CRC LUT storage: one 1-KB LUT per byte of the block for
        the Sign subunit plus four for the Shift subunit."""
        return (self.crc_block_bytes + 4) * 256 * 4

    def tile_index(self, tx: int, ty: int) -> int:
        """Linear identifier of the tile at tile-grid position (tx, ty)."""
        if not (0 <= tx < self.tiles_x and 0 <= ty < self.tiles_y):
            raise ConfigError(f"tile ({tx}, {ty}) outside {self.tiles_x}x{self.tiles_y} grid")
        return ty * self.tiles_x + tx

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def mali450(cls) -> "GpuConfig":
        """The exact Table I configuration (1196x768, 16x16 tiles)."""
        return cls()

    @classmethod
    def benchmark(cls) -> "GpuConfig":
        """Scaled-down screen used by the benchmark harness (384x256)."""
        return cls(screen_width=384, screen_height=256)

    @classmethod
    def small(cls) -> "GpuConfig":
        """Tiny screen for unit tests (96x64 = 6x4 tiles)."""
        return cls(screen_width=96, screen_height=64)
