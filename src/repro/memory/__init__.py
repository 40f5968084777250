"""Memory hierarchy substrate: caches, DRAM model, traffic accounting,
and the per-frame access log that ties them together."""

from .cache import Cache, CacheStats, line_addresses
from .dram import Dram, DramStats, LATENCY_OVERLAP, latency_overlap
from .hierarchy import MemoryHierarchy
from .traffic import ALL_STREAMS, RASTER_STREAMS, TrafficCounters

__all__ = [
    "Cache",
    "CacheStats",
    "line_addresses",
    "Dram",
    "DramStats",
    "LATENCY_OVERLAP",
    "latency_overlap",
    "MemoryHierarchy",
    "ALL_STREAMS",
    "RASTER_STREAMS",
    "TrafficCounters",
]
