"""On-chip tile buffers and the double-buffered Frame Buffer.

:class:`TileBuffers` models the 1-KB on-chip Color Buffer and Depth
Buffer a TBR GPU renders into; :class:`FrameBuffer` models the two
full-screen buffers in system memory (Front displayed, Back rendered,
swapped each frame — Section IV-C), which is why Rendering Elimination
compares a tile's signature against the frame *two* back by default.
"""

from __future__ import annotations

import numpy as np

from ..config import GpuConfig
from ..errors import PipelineError

DEFAULT_CLEAR_COLOR = (0.0, 0.0, 0.0, 1.0)
DEFAULT_CLEAR_DEPTH = 1.0


class TileBuffers:
    """One tile's on-chip color and depth arrays."""

    def __init__(self, tile_size: int) -> None:
        self.tile_size = tile_size
        self.color = np.zeros((tile_size, tile_size, 4), dtype=np.float32)
        self.depth = np.ones((tile_size, tile_size), dtype=np.float32)

    def clear(self, color=DEFAULT_CLEAR_COLOR,
              depth: float = DEFAULT_CLEAR_DEPTH) -> None:
        self.color[:] = np.asarray(color, dtype=np.float32)
        self.depth[:] = depth


class FrameBuffer:
    """Double-buffered full-screen color storage in system memory."""

    def __init__(self, config: GpuConfig) -> None:
        self.config = config
        shape = (config.screen_height, config.screen_width, 4)
        self._buffers = [
            np.zeros(shape, dtype=np.float32),
            np.zeros(shape, dtype=np.float32),
        ]
        self._back = 0
        size, tiles_x = config.tile_size, config.tiles_x
        self._rects = []
        for tile_id in range(config.num_tiles):
            x0 = tile_id % tiles_x * size
            y0 = tile_id // tiles_x * size
            self._rects.append((
                x0, y0, min(x0 + size, config.screen_width),
                min(y0 + size, config.screen_height),
            ))

    @property
    def back(self) -> np.ndarray:
        """The buffer the GPU is currently rendering into."""
        return self._buffers[self._back]

    @property
    def front(self) -> np.ndarray:
        """The buffer the display is reading."""
        return self._buffers[1 - self._back]

    def swap(self) -> None:
        self._back = 1 - self._back

    def tile_rect(self, tile_id: int) -> tuple:
        """Pixel rect (x0, y0, x1, y1) of a tile, clipped to the screen
        (edge tiles may be partial)."""
        if not 0 <= tile_id < len(self._rects):
            raise PipelineError(f"tile id {tile_id} out of range")
        return self._rects[tile_id]

    def tile_pixels(self, tile_id: int) -> int:
        x0, y0, x1, y1 = self.tile_rect(tile_id)
        return (x1 - x0) * (y1 - y0)

    def write_tile(self, tile_id: int, tile_color: np.ndarray) -> int:
        """Flush a tile's on-chip colors into the Back buffer; returns
        the bytes written (RGBA8 per pixel)."""
        x0, y0, x1, y1 = self.tile_rect(tile_id)
        h, w = y1 - y0, x1 - x0
        self.back[y0:y1, x0:x1] = tile_color[:h, :w]
        return h * w * 4

    def read_tile(self, tile_id: int, buffer: str = "back") -> np.ndarray:
        x0, y0, x1, y1 = self.tile_rect(tile_id)
        source = self.back if buffer == "back" else self.front
        return source[y0:y1, x0:x1].copy()

    def snapshot_back(self) -> np.ndarray:
        """Copy of the just-rendered frame (call before :meth:`swap`)."""
        return self.back.copy()

    def state_dict(self) -> dict:
        return {
            "buffers": [buf.copy() for buf in self._buffers],
            "back": self._back,
        }

    def load_state_dict(self, state: dict) -> None:
        for buf, saved in zip(self._buffers, state["buffers"]):
            buf[:] = saved
        self._back = int(state["back"])
