"""The Signature Unit (Fig. 7): incremental tile-signature computation.

Receives the same events the paper's hardware taps — constants uploads
from the Command Processor, (primitive, overlapped-tiles) pairs from the
Polygon List Builder — and maintains the current frame's per-tile CRCs
in the Signature Buffer:

* the **Compute CRC unit** signs each variable-length block (constants
  or primitive attributes) in 64-bit subblocks (Algorithm 2), recording
  the block's length in subblocks ("Shift Amount");
* per overlapped tile, the **Accumulate CRC unit** left-shifts the
  tile's stored CRC by that length (Algorithm 3) and XORs in the block's
  CRC (Algorithm 1);
* a per-drawcall **bitmap** ensures the constants CRC is folded into
  each tile at most once per constants upload (Section III-F).

Two execution modes produce *bit-identical* signatures and activity
counts (property-tested):

* ``exact=True``  — the reference: :meth:`SignatureUnit.on_primitive`
  per primitive, every LUT read through the hardware unit models of
  :mod:`repro.hashing.parallel`; slow, used by tests and small runs.
* ``exact=False`` — :meth:`SignatureUnit.on_drawcall` signs a whole
  drawcall with array operations.  Its primitives share one attribute
  layout, hence one shift amount: one table pass signs all their blocks
  (:func:`~repro.hashing.tables.crc32_rows`), and the fold takes the
  tiles' primitives in rank steps, step r shifting every tile that has
  an r-th primitive and XORing that primitive's block CRC in.  Activity
  counters come from the formulas the hardware models count one by one.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..config import GpuConfig
from ..geometry.primitives import PrimitiveBatch
from ..hashing.incremental import combine_many, shift_many
from ..hashing.parallel import AccumulateCrcUnit, ComputeCrcUnit
from ..hashing.tables import crc32_rows
from .signature import padded_length
from .signature_buffer import SignatureBuffer

#: Cycles charged per tile update beyond the accumulate shifts: Signature
#: Buffer read, XOR, Signature Buffer write-back (pipelined to ~2).
TILE_UPDATE_OVERHEAD_CYCLES = 2


@dataclasses.dataclass
class SignatureUnitStats:
    """Aggregate activity of the Signature Unit for one frame."""

    constants_signed: int = 0
    primitives_signed: int = 0
    tile_updates: int = 0
    constants_folds: int = 0
    bitmap_clears: int = 0
    bitmap_reads: int = 0
    compute_cycles: int = 0       # Compute CRC unit busy cycles
    accumulate_cycles: int = 0    # Accumulate CRC unit busy cycles
    lut_reads: int = 0
    ot_queue_overflows: int = 0
    stall_cycles: int = 0         # geometry stalls from OT-queue overflow

    def reset(self) -> None:
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)


class SignatureUnit:
    """Signs tile inputs on the fly during tiling."""

    def __init__(self, config: GpuConfig, exact: bool = False) -> None:
        self.config = config
        self.exact = exact
        self.block_bytes = config.crc_block_bytes
        self.ot_queue_entries = config.ot_queue_entries
        self.num_tiles = config.num_tiles
        self.stats = SignatureUnitStats()

        self.compute_unit = ComputeCrcUnit(self.block_bytes)
        self.accumulate_unit = AccumulateCrcUnit(self.block_bytes)

        self._bitmap = np.zeros(self.num_tiles, dtype=bool)
        self._buffer: SignatureBuffer = None
        # Constants CRC / Shift Amount C registers (Fig. 7).
        self._constants_crc = 0
        self._constants_shift = 0
        self._last_constants_version = None

    # ------------------------------------------------------------------
    def begin_frame(self, buffer: SignatureBuffer) -> None:
        """Point the unit at the Signature Buffer bank for a new frame."""
        self._buffer = buffer
        self._bitmap[:] = False
        self._constants_crc = 0
        self._constants_shift = 0
        self._last_constants_version = None

    # Block signing -----------------------------------------------------
    def _count_compute(self, blocks: int, shift: int) -> None:
        """Compute CRC unit activity for ``blocks`` blocks of ``shift``
        subblocks each, as the exact-mode hardware units count it."""
        self.stats.compute_cycles += blocks * shift
        self.stats.lut_reads += blocks * (
            shift * self.block_bytes + max(0, shift - 1) * 4
        )

    def _sign_rows(self, rows: np.ndarray) -> tuple:
        """CRCs and shared shift amount (subblocks) of equal-length
        blocks, the rows of ``rows``: one table pass."""
        length = padded_length(rows.shape[1], self.block_bytes)
        shift = length // self.block_bytes
        self._count_compute(len(rows), shift)
        return crc32_rows(rows, length), shift

    def _sign_block(self, block: bytes) -> tuple:
        """CRC + shift amount (subblocks) of one block."""
        if self.exact:
            crc, shift = self.compute_unit.compute(block)
            self._count_compute(1, shift)
            return crc, shift
        crcs, shift = self._sign_rows(np.frombuffer(block, np.uint8)[None])
        return int(crcs[0]), shift

    # Event taps (PolygonListBuilder listener protocol) -------------------
    def on_draw_state(self, state) -> None:
        """Sign the constants block when a new upload is first drawn."""
        if state.constants_version == self._last_constants_version:
            return
        self._last_constants_version = state.constants_version
        block = state.constants_bytes()
        self._constants_crc, self._constants_shift = self._sign_block(block)
        self._bitmap[:] = False
        self.stats.constants_signed += 1
        self.stats.bitmap_clears += 1

    def on_drawcall(self, batch: PrimitiveBatch, prims: np.ndarray,
                    tiles: np.ndarray) -> None:
        """Fold a drawcall's (primitive, tile) pairs into the tiles'
        signatures: pair i is batch row ``prims[i]`` on tile
        ``tiles[i]``, in program order.  A tile fresh since the last
        constants upload first takes the pending constants.

        ``exact=True`` feeds each primitive to :meth:`on_primitive` in
        turn, the reference this fold must equal.
        """
        if self._buffer is None:
            raise RuntimeError("SignatureUnit.begin_frame was not called")
        if self.exact:
            cuts = np.flatnonzero(np.diff(prims)) + 1
            for rows, tile_ids in zip(np.split(prims, cuts),
                                      np.split(tiles, cuts)):
                if len(rows):
                    self.on_primitive(batch.primitives[rows[0]], tile_ids)
            return
        if not len(tiles):
            return
        # Sign the binned primitives, slot j holding the j-th of them.
        per_row = np.bincount(prims)
        signed = np.flatnonzero(per_row)
        per_prim = per_row[signed]
        slots = np.repeat(np.arange(len(signed)), per_prim)
        block_crcs, shift = self._sign_rows(batch.attributes[signed])

        # Sort the pairs stably by tile, so each tile's run of pairs is
        # in program order, and take the tiles with the most pairs
        # first: the tiles that have an r-th pair are then a prefix, for
        # every rank r.
        order = np.argsort(tiles, kind="stable")
        per_tile = np.bincount(tiles)
        touched = np.flatnonzero(per_tile)
        depth = per_tile[touched]
        heads = np.cumsum(depth) - depth
        deepest = np.argsort(-depth, kind="stable")
        touched, depth, heads = touched[deepest], depth[deepest], heads[deepest]
        fresh = ~self._bitmap[touched]
        n_fresh = int(np.count_nonzero(fresh))

        crcs = self._buffer.read_many(touched, accesses=len(tiles))
        if n_fresh and self._constants_shift:
            crcs[fresh] = combine_many(
                crcs[fresh], self._constants_crc,
                self._constants_shift * self.block_bytes * 8,
            )
        pair_crcs = block_crcs[slots[order]]
        bits = shift * self.block_bytes * 8
        live = np.searchsorted(-depth, -np.arange(depth[0]), side="left")
        for rank, count in enumerate(live.tolist()):
            crcs[:count] = (
                shift_many(crcs[:count], bits)
                ^ pair_crcs[heads[:count] + rank]
            )
        self._buffer.write_many(touched, crcs, accesses=len(tiles))
        self._bitmap[touched] = True

        # Counters, summed over the primitives.  A primitive's fresh
        # tiles are those whose first pair is its own.
        fresh_per_prim = np.bincount(
            slots[order[heads[fresh]]], minlength=len(signed)
        )
        constants_cycles = (
            self._constants_shift + TILE_UPDATE_OVERHEAD_CYCLES
            if self._constants_shift else 0
        )
        busy = (fresh_per_prim * constants_cycles
                + per_prim * (shift + TILE_UPDATE_OVERHEAD_CYCLES))
        self.stats.primitives_signed += len(signed)
        self.stats.bitmap_reads += len(tiles)
        self.stats.tile_updates += len(tiles)
        self.stats.constants_folds += n_fresh
        self.stats.lut_reads += (
            len(tiles) * shift + n_fresh * self._constants_shift
        ) * 4
        self.stats.accumulate_cycles += int(busy.sum())
        self._count_stalls(per_prim, busy)

    def on_primitive(self, prim, tile_ids) -> None:
        """Fold one primitive (and, where needed, the pending constants)
        into every overlapped tile's signature.

        With ``exact=True`` this is the per-LUT reference; otherwise the
        primitive is signed as a drawcall of one.
        """
        if self._buffer is None:
            raise RuntimeError("SignatureUnit.begin_frame was not called")
        if len(tile_ids) == 0:
            # A clipped/culled primitive overlapping no tiles never
            # reaches the Signature Unit in the paper's model: no
            # signing, no bitmap read, no counter activity.
            return
        tile_ids = np.asarray(tile_ids, dtype=np.int64)
        if not self.exact:
            self.on_drawcall(
                PrimitiveBatch.from_primitives(prim.state, [prim]),
                np.zeros(len(tile_ids), dtype=np.int64), tile_ids,
            )
            return
        prim_crc, prim_shift = self._sign_block(prim.attribute_bytes())
        self.stats.primitives_signed += 1
        self.stats.bitmap_reads += len(tile_ids)
        fresh = ~self._bitmap[tile_ids]
        busy = self._update_tiles(tile_ids, fresh, prim_crc, prim_shift)
        self._bitmap[tile_ids] = True
        self._count_stalls(np.array([len(tile_ids)]), np.array([busy]))

    def _count_stalls(self, tiles: np.ndarray, busy: np.ndarray) -> None:
        """OT-queue overflow model, per primitive: the queue absorbs up
        to its depth in tile ids while the PLB keeps producing; beyond
        that the Geometry Pipeline stalls for the drain time of the
        excess, at the primitive's mean Accumulate cycles per tile."""
        overflow = tiles - self.ot_queue_entries
        over = overflow > 0
        if not over.any():
            return
        self.stats.ot_queue_overflows += int(np.count_nonzero(over))
        # Round half-up: truncation toward zero would systematically
        # under-count stalls when the per-tile cost is small.
        drain = overflow[over] * (busy[over] / tiles[over]) + 0.5
        self.stats.stall_cycles += int(drain.astype(np.int64).sum())

    # Tile updates (reference) ---------------------------------------------
    def _update_tiles(self, tile_ids: np.ndarray, fresh: np.ndarray,
                      prim_crc: int, prim_shift: int) -> int:
        """Apply constants (where fresh) then the primitive CRC to the
        tiles' stored signatures, one LUT read at a time; returns
        Accumulate-unit busy cycles."""
        n_fresh = int(fresh.sum())
        busy = 0
        for tile_id, is_fresh in zip(tile_ids, fresh):
            crc = self._buffer.read(int(tile_id))
            if is_fresh and self._constants_shift:
                crc = self._constants_crc ^ self.accumulate_unit.accumulate(
                    crc, self._constants_shift
                )
                busy += self._constants_shift + TILE_UPDATE_OVERHEAD_CYCLES
            crc = prim_crc ^ self.accumulate_unit.accumulate(crc, prim_shift)
            busy += prim_shift + TILE_UPDATE_OVERHEAD_CYCLES
            self._buffer.write(int(tile_id), crc)
        # The accumulate unit's LUT reads are 4 per shift step.
        self.stats.lut_reads += (
            len(tile_ids) * prim_shift + n_fresh * self._constants_shift
        ) * 4
        self.stats.tile_updates += len(tile_ids)
        self.stats.constants_folds += n_fresh
        self.stats.accumulate_cycles += busy
        return busy

    def state_dict(self) -> dict:
        """Cumulative activity counters only.  Everything else (bitmap,
        constants registers) is rebuilt by :meth:`begin_frame`, so it
        cannot influence post-restore results."""
        return {"stats": dataclasses.asdict(self.stats)}

    def load_state_dict(self, state: dict) -> None:
        for name, value in state["stats"].items():
            setattr(self.stats, name, int(value))

    @property
    def lut_storage_bytes(self) -> int:
        """CRC LUT ROM cost (Sign + Shift subunits)."""
        return (self.block_bytes + 4) * 1024
