"""The Signature Buffer: on-chip storage for tile signatures.

Holds one 32-bit CRC per tile for each frame still "live" in the
display pipeline.  With double buffering (Section IV-C) the GPU renders
into the Back buffer, whose previous contents are from two frames ago,
so a tile's new signature must be compared against the signature from
``compare_distance = 2`` frames back.  A single-buffered configuration
(``compare_distance = 1``) is supported for analysis.

The buffer therefore keeps ``compare_distance + 1`` banks of
``num_tiles`` signatures in a ring: the bank being written for the
current frame plus the history needed for comparison.  Storage cost is
reported for the paper's area accounting (two frames' worth at 4 bytes
per tile: ~28.8 KB for 3600 tiles).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import ReproError

#: Signature value used for tiles that have received no input blocks.
EMPTY_SIGNATURE = 0


@dataclasses.dataclass
class SignatureBufferStats:
    reads: int = 0
    writes: int = 0
    compares: int = 0


class SignatureBuffer:
    """Ring of per-tile signature banks spanning the live frames."""

    def __init__(self, num_tiles: int, compare_distance: int = 2) -> None:
        if compare_distance < 1:
            raise ReproError("compare_distance must be >= 1")
        self.num_tiles = num_tiles
        self.compare_distance = compare_distance
        self._banks = np.zeros(
            (compare_distance + 1, num_tiles), dtype=np.uint32
        )
        self._valid = np.zeros(compare_distance + 1, dtype=bool)
        self._current = 0
        self.stats = SignatureBufferStats()

    # Frame lifecycle ----------------------------------------------------
    def begin_frame(self) -> None:
        """Rotate to a fresh bank for the incoming frame's signatures."""
        self._current = (self._current + 1) % len(self._banks)
        self._banks[self._current].fill(EMPTY_SIGNATURE)
        self._valid[self._current] = False

    def commit_frame(self) -> None:
        """Mark the current bank complete (geometry phase finished)."""
        self._valid[self._current] = True

    # Current-frame accumulation ------------------------------------------
    def read(self, tile_id: int) -> int:
        self.stats.reads += 1
        return int(self._banks[self._current][tile_id])

    def write(self, tile_id: int, signature: int) -> None:
        self.stats.writes += 1
        self._banks[self._current][tile_id] = signature

    def read_many(self, tile_ids: np.ndarray,
                  accesses: int = None) -> np.ndarray:
        """The signatures of ``tile_ids``, charged as ``accesses`` reads
        (one per tile by default): a fold that keeps a tile's CRC in
        registers across several (primitive, tile) pairs still charges
        the hardware's one read per pair."""
        self.stats.reads += len(tile_ids) if accesses is None else accesses
        return self._banks[self._current][tile_ids]

    def write_many(self, tile_ids: np.ndarray, signatures: np.ndarray,
                   accesses: int = None) -> None:
        """Store signatures, charged like :meth:`read_many`."""
        self.stats.writes += len(tile_ids) if accesses is None else accesses
        self._banks[self._current][tile_ids] = signatures

    @property
    def current(self) -> np.ndarray:
        """The (read-only) current-frame signature bank."""
        view = self._banks[self._current].view()
        view.flags.writeable = False
        return view

    # Comparison ----------------------------------------------------------
    def reference_bank_valid(self) -> bool:
        """Whether a complete bank exists ``compare_distance`` frames back."""
        ref = (self._current - self.compare_distance) % len(self._banks)
        return bool(self._valid[ref])

    def matches_reference(self, tile_id: int) -> bool:
        """Compare a tile's current signature with the reference frame's.

        Never matches when the reference bank is incomplete (warm-up or
        a frame where RE was disabled), so RE conservatively renders.
        """
        self.stats.compares += 1
        if not self.reference_bank_valid():
            return False
        ref = (self._current - self.compare_distance) % len(self._banks)
        return bool(
            self._banks[ref][tile_id] == self._banks[self._current][tile_id]
        )

    def invalidate_all(self) -> None:
        """Forget all history (e.g. after an RE-disabled frame where
        signatures were not maintained)."""
        self._valid[:] = False

    def state_dict(self) -> dict:
        return {
            "banks": self._banks.copy(),
            "valid": self._valid.copy(),
            "current": self._current,
            "stats": dataclasses.asdict(self.stats),
        }

    def load_state_dict(self, state: dict) -> None:
        self._banks[:] = state["banks"]
        self._valid[:] = state["valid"]
        self._current = int(state["current"])
        for name, value in state["stats"].items():
            setattr(self.stats, name, int(value))

    @property
    def storage_bytes(self) -> int:
        """On-chip SRAM the paper's area model charges: two frames of
        4-byte signatures (the ring's extra bank is an artifact of the
        software model, not extra hardware — hardware overwrites the
        oldest bank in place)."""
        return 2 * self.num_tiles * 4
