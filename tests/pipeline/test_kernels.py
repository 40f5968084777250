"""The raster inner loops: early-Z compare/update and edge coverage."""

import numpy as np

from repro.geometry import DrawState, Primitive, mat4
from repro.pipeline.depth import DepthStage
from repro.pipeline.rasterizer import rasterize
from repro.shaders import FLAT_COLOR, pack_constants


class TestEarlyZ:
    def test_less_compare_and_write(self):
        tile = np.full((4, 4), 0.5, dtype=np.float32)
        xs = np.array([0, 1, 2], dtype=np.int64)
        ys = np.array([0, 0, 0], dtype=np.int64)
        depth = np.array([0.25, 0.5, 0.75], dtype=np.float32)
        mask = DepthStage().test(tile, xs, ys, depth, depth_write=True)
        # Strict LESS: equal depth fails.
        assert mask.tolist() == [True, False, False]
        assert tile[0, 0] == np.float32(0.25)
        assert tile[0, 1] == np.float32(0.5)

    def test_no_write_without_depth_write(self):
        tile = np.full((4, 4), 0.5, dtype=np.float32)
        xs = np.array([0], dtype=np.int64)
        ys = np.array([0], dtype=np.int64)
        mask = DepthStage().test(tile, xs, ys,
                                 np.array([0.1], dtype=np.float32),
                                 depth_write=False)
        assert mask.tolist() == [True]
        assert tile[0, 0] == np.float32(0.5)

    def test_empty_batch(self):
        tile = np.full((2, 2), 1.0, dtype=np.float32)
        empty = np.array([], dtype=np.int64)
        stage = DepthStage()
        mask = stage.test(tile, empty, empty,
                          np.array([], dtype=np.float32), depth_write=True)
        assert mask.size == 0
        assert stage.stats.fragments_tested == 0


class TestEdgeCoverage:
    def test_grid_and_fill_rule(self):
        # Positively-oriented right triangle spanning a 4x4 grid; only
        # the strict interior of non-top-left edges is covered.
        prim = Primitive(
            screen=np.array([[0, 0], [4, 0], [0, 4]], dtype=np.float32),
            depth=np.full(3, 0.5, dtype=np.float32),
            clip=np.zeros((3, 4), dtype=np.float32), varyings={},
            state=DrawState(FLAT_COLOR, pack_constants(mat4.identity())),
        )
        batch = rasterize(prim, (0, 0, 4, 4))
        inside = np.zeros((4, 4), dtype=bool)
        inside[batch.ys, batch.xs] = True
        # Diagonal pixel centers (x + y == 3, w0 == 0, non-top-left edge)
        # are excluded; everything strictly inside is covered.
        expected = np.array([
            [1, 1, 1, 0],
            [1, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 0],
        ], dtype=bool)
        assert np.array_equal(inside, expected)
        assert np.all(batch.bary > 0)
