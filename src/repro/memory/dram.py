"""Main-memory model: dual-channel LPDDR3-like bandwidth and latency.

Substitutes for DRAMSim2 in the paper's toolchain.  Each transaction pays
a fixed access latency (drawn deterministically between the Table I
bounds according to recent channel pressure) plus a transfer time at the
configured bytes/cycle.  The model reports *stall* cycles assuming the
pipeline overlaps a fraction of the latency with independent work, which
is what the activity-based timing model needs.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..config import GpuConfig
from .traffic import ALL_STREAMS, TrafficCounters


def latency_overlap(config: GpuConfig) -> float:
    """Fraction of DRAM access latency hidden by pipelining.

    Latency hiding comes from the in-flight work the inter-stage queues
    hold (Table I): a deeper Fragment Queue keeps more independent
    fragments available while a miss is outstanding.  The model maps
    the 64-entry baseline to 90% hiding and scales smoothly: a 16-entry
    queue hides 75%, a 4-entry queue only 60%.
    """
    entries = config.fragment_queue.entries
    return 1.0 - 8.0 / (entries + 16.0)


#: Overlap of the Table I baseline (64-entry fragment queue).
LATENCY_OVERLAP = 0.9


@dataclasses.dataclass
class DramStats:
    transactions: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    transfer_cycles: int = 0
    stall_cycles: int = 0

    def reset(self) -> None:
        self.transactions = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self.transfer_cycles = 0
        self.stall_cycles = 0


class Dram:
    """Byte-stream main memory with a simple contention-aware latency."""

    def __init__(self, config: GpuConfig, traffic: TrafficCounters = None) -> None:
        self.config = config
        self.traffic = traffic if traffic is not None else TrafficCounters()
        self.stats = DramStats()
        self.latency_overlap = latency_overlap(config)
        self._pressure = 0.0  # exponentially-decayed recent transaction load

    def _latency(self) -> float:
        """Deterministic latency between the configured min and max,
        rising with recent pressure (a stand-in for bank conflicts and
        queueing in DRAMSim2)."""
        low = self.config.dram_latency_min_cycles
        high = self.config.dram_latency_max_cycles
        load = min(1.0, self._pressure / 32.0)
        return low + (high - low) * load

    def _transact(self, nbytes: int, stream: str, is_write: bool) -> int:
        if nbytes < 0:
            raise ValueError("transaction size must be non-negative")
        if nbytes == 0:
            return 0
        latency = self._latency()
        transfer = -(-nbytes // self.config.dram_bytes_per_cycle)  # ceil
        self._pressure = self._pressure * 0.95 + 1.0
        self.stats.transactions += 1
        self.stats.transfer_cycles += transfer
        stall = int(latency * (1.0 - self.latency_overlap)) + transfer
        self.stats.stall_cycles += stall
        if is_write:
            self.stats.write_bytes += nbytes
        else:
            self.stats.read_bytes += nbytes
        self.traffic.add(stream, nbytes)
        return stall

    def charge(self, nbytes, writes, streams) -> np.ndarray:
        """Charge a run of transactions in order; returns each one's
        stall cycles.

        ``nbytes`` holds each transaction's size, ``writes`` whether it
        is a write, and ``streams`` its traffic stream as an index into
        :data:`~repro.memory.traffic.ALL_STREAMS`.  Bit-identical to one
        :meth:`read` or :meth:`write` call per transaction: the pressure
        recurrence is iterated, not closed-form, but only until
        ``0.95 * p + 1 == p``.  From that floating-point fixed point on,
        every transaction pays the same latency.
        """
        nbytes = np.asarray(nbytes, dtype=np.int64)
        stalls = np.zeros(nbytes.size, dtype=np.int64)
        if nbytes.size and nbytes.min() < 0:
            raise ValueError("transaction size must be non-negative")
        live = np.flatnonzero(nbytes)  # 0-byte transactions are free
        count = live.size
        if count == 0:
            return stalls
        low = self.config.dram_latency_min_cycles
        high = self.config.dram_latency_max_cycles
        span = high - low
        hidden = 1.0 - self.latency_overlap
        latency = []
        pressure = self._pressure
        for _ in range(count):
            load = pressure / 32.0
            if load > 1.0:
                load = 1.0
            latency.append(int((low + span * load) * hidden))
            following = pressure * 0.95 + 1.0
            if following == pressure:
                latency.extend(latency[-1:] * (count - len(latency)))
                break
            pressure = following
        self._pressure = pressure
        sizes = nbytes[live]
        transfer = -(-sizes // self.config.dram_bytes_per_cycle)  # ceil
        stalls[live] = np.asarray(latency, dtype=np.int64) + transfer
        is_write = np.asarray(writes, dtype=bool)[live]
        stats = self.stats
        stats.transactions += count
        stats.transfer_cycles += int(transfer.sum())
        stats.stall_cycles += int(stalls.sum())
        stats.write_bytes += int(sizes[is_write].sum())
        stats.read_bytes += int(sizes[~is_write].sum())
        by_stream = np.asarray(streams)[live]
        for index in np.unique(by_stream).tolist():
            self.traffic.add(ALL_STREAMS[index],
                             int(sizes[by_stream == index].sum()))
        return stalls

    def read(self, nbytes: int, stream: str) -> int:
        """Read ``nbytes``; returns the pipeline stall cycles charged."""
        return self._transact(nbytes, stream, is_write=False)

    def write(self, nbytes: int, stream: str) -> int:
        """Write ``nbytes``; returns the pipeline stall cycles charged."""
        return self._transact(nbytes, stream, is_write=True)

    @property
    def total_bytes(self) -> int:
        return self.stats.read_bytes + self.stats.write_bytes

    def state_dict(self) -> dict:
        """The pressure recurrence crosses frame boundaries (it decays,
        never resets), so a restore must carry it; the cumulative stats
        come along so totals survive a checkpoint round trip."""
        return {
            "pressure": self._pressure,
            "stats": dataclasses.asdict(self.stats),
        }

    def load_state_dict(self, state: dict) -> None:
        self._pressure = float(state["pressure"])
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)
