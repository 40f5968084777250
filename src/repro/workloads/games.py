"""The Table II benchmark suite as synthetic scene generators.

The paper evaluates ten commercial Android games.  Those binaries (and
the Teapot tracing stack) are unavailable, so each benchmark is rebuilt
as a parameterized scene whose *command-stream structure* matches the
behaviour the paper reports for that game:

* ccs..hop — mostly static cameras, >90% of tiles unchanged per frame;
* mst      — continuous camera motion, essentially no redundant tiles;
* abi..tib — mixed phases, including panning over flat-colored regions
  (tiles whose *inputs* change but whose *colors* do not: RE's false
  negatives, where Transaction Elimination can still win) and movers
  fully occluded by opaque geometry (same effect via early-Z).

Scenes are deterministic pure functions of the frame index.  Geometry
sits in normalized screen coordinates, so the per-game redundant-tile
fraction is independent of the simulated resolution.

Two non-game workloads support Fig. 1: ``desktop`` (a static launcher
that leaves the GPU nearly idle) and ``antutu`` (a full-screen,
every-frame-changing stress scene).
"""

from __future__ import annotations

import dataclasses
import math

from ..errors import ReproError
from ..textures import (
    checker_texture,
    flat_texture,
    gradient_texture,
    noise_texture,
)
from .camera import (
    ContinuousCamera,
    EpisodicCamera,
    ShakeCamera,
    StaticCamera,
)
from .scene import QuadNode, Scene


@dataclasses.dataclass(frozen=True)
class BenchmarkInfo:
    """One row of Table II."""

    name: str
    alias: str
    genre: str
    type: str  # "2D" or "3D"


#: Table II, in the paper's order.
BENCHMARKS = (
    BenchmarkInfo("Angry Birds", "abi", "Arcade", "2D"),
    BenchmarkInfo("Candy Crush Saga", "ccs", "Puzzle", "2D"),
    BenchmarkInfo("Castle Defense", "cde", "Tower Defense", "2D"),
    BenchmarkInfo("Clash of Clans", "coc", "MMO Strategy", "3D"),
    BenchmarkInfo("Crazy Snowboard", "csn", "Arcade", "3D"),
    BenchmarkInfo("Cut the Rope", "ctr", "Puzzle", "2D"),
    BenchmarkInfo("Hopeless", "hop", "Survival Horror", "2D"),
    BenchmarkInfo("Modern Strike", "mst", "First Person Shooter", "3D"),
    BenchmarkInfo("Temple Run", "ter", "Platform", "3D"),
    BenchmarkInfo("Tigerball", "tib", "Physics Puzzle", "3D"),
)

#: Figure order used by the paper's result plots.
FIGURE_ORDER = ("ccs", "cde", "coc", "ctr", "hop", "mst", "abi", "csn", "ter", "tib")

#: Extra workloads for the Fig. 1 motivation experiment.
PSEUDO_WORKLOADS = ("desktop", "antutu")


def benchmark_info(alias: str) -> BenchmarkInfo:
    for info in BENCHMARKS:
        if info.alias == alias:
            return info
    raise ReproError(f"unknown benchmark alias {alias!r}")


class _TextureBank:
    """Per-scene texture allocator with unique address spaces."""

    def __init__(self, base_id: int) -> None:
        self._next = base_id

    def _take(self) -> int:
        self._next += 1
        return self._next

    def flat(self, color):
        return flat_texture(color, self._take())

    def checker(self, a, b, cells=8, size=64):
        return checker_texture(a, b, self._take(), size=size, cells=cells)

    def gradient(self, top, bottom, size=64):
        return gradient_texture(top, bottom, self._take(), size=size)

    def noise(self, seed, base=(0.5, 0.5, 0.5, 1.0), amplitude=0.5, size=64):
        return noise_texture(self._take(), size=size, seed=seed,
                             base_color=base, amplitude=amplitude)


def _pulse(period: int, base: tuple, delta: float):
    """Tint oscillation: a small animated highlight."""

    def tint_fn(frame: int) -> tuple:
        level = delta * math.sin(2.0 * math.pi * frame / period)
        return (base[0] + level, base[1] + level, base[2], base[3])

    return tint_fn


def _orbit(cx: float, cy: float, radius: float, period: int):
    """Circular sprite motion around (cx, cy), relative to the rect."""

    def position_fn(frame: int) -> tuple:
        angle = 2.0 * math.pi * frame / period
        return (cx + radius * math.cos(angle), cy + radius * math.sin(angle))

    return position_fn


def _sweep(speed: float, span: float, axis: str = "x"):
    """Back-and-forth linear motion over ``span`` at ``speed``/frame."""

    def position_fn(frame: int) -> tuple:
        t = (frame * speed) % (2.0 * span)
        offset = t if t <= span else 2.0 * span - t
        return (offset, 0.0) if axis == "x" else (0.0, offset)

    return position_fn


def _swing(amplitude: float, period: int):
    """Pendulum motion (Cut the Rope's candy)."""

    def position_fn(frame: int) -> tuple:
        angle = amplitude * math.sin(2.0 * math.pi * frame / period)
        return (angle, abs(angle) * 0.4)

    return position_fn


# ----------------------------------------------------------------------
# Scene builders, one per benchmark
# ----------------------------------------------------------------------

def _build_ccs(tex: _TextureBank) -> Scene:
    """Candy Crush: static board, one pulsing candy, tiny mover."""
    board = tex.checker((0.9, 0.5, 0.6, 1), (0.95, 0.8, 0.4, 1), cells=8, size=512)
    nodes = [
        QuadNode("background", (0.0, 0.0, 1.0, 1.0), z=0.9, shader="textured", subdivide=10,
                 texture=tex.gradient((0.4, 0.2, 0.5, 1), (0.2, 0.1, 0.3, 1), size=256),
                 camera_affected=False),
        QuadNode("board", (0.1, 0.15, 0.9, 0.95), z=0.7, shader="textured", subdivide=10,
                 texture=board, camera_affected=False),
        QuadNode("selected-candy", (0.45, 0.5, 0.55, 0.6), z=0.5,
                 shader="flat", tint=(1.0, 0.3, 0.3, 1.0),
                 tint_fn=_pulse(8, (0.9, 0.3, 0.3, 1.0), 0.1),
                 camera_affected=False),
        QuadNode("score-sparkle", (0.05, 0.02, 0.12, 0.09), z=0.4,
                 shader="flat", tint=(1, 1, 0.6, 1),
                 tint_fn=_pulse(5, (0.9, 0.9, 0.5, 1.0), 0.08),
                 camera_affected=False),
        QuadNode("falling-candy", (0.25, 0.2, 0.33, 0.3), z=0.45,
                 shader="flat", tint=(0.3, 0.7, 0.9, 1.0),
                 position_fn=_sweep(0.02, 0.3, axis="y"),
                 camera_affected=False),
        QuadNode("combo-flash", (0.6, 0.7, 0.75, 0.82), z=0.45,
                 shader="flat", tint=(0.9, 0.6, 0.9, 1.0),
                 tint_fn=_pulse(6, (0.85, 0.55, 0.85, 1.0), 0.12),
                 active_fn=lambda f: (f // 12) % 2 == 0,
                 camera_affected=False),
    ]
    return Scene(nodes, StaticCamera(), clear_color=(0.1, 0.05, 0.15, 1))


def _build_cde(tex: _TextureBank) -> Scene:
    """Castle Defense: very static scene, one tiny projectile."""
    nodes = [
        QuadNode("terrain", (0.0, 0.0, 1.0, 1.0), z=0.9, shader="textured", subdivide=10,
                 texture=tex.noise(3, base=(0.35, 0.5, 0.3, 1), amplitude=0.2, size=512),
                 camera_affected=False),
        QuadNode("castle", (0.02, 0.3, 0.22, 0.8), z=0.6, shader="textured",
                 texture=tex.checker((0.5, 0.5, 0.55, 1), (0.4, 0.4, 0.45, 1),
                                     cells=4),
                 camera_affected=False),
        QuadNode("tower", (0.75, 0.35, 0.9, 0.75), z=0.6, shader="textured",
                 texture=tex.checker((0.45, 0.4, 0.4, 1), (0.35, 0.3, 0.3, 1),
                                     cells=4),
                 camera_affected=False),
        QuadNode("flag", (0.1, 0.22, 0.16, 0.3), z=0.5, shader="flat",
                 tint=(0.8, 0.1, 0.1, 1.0),
                 tint_fn=_pulse(7, (0.75, 0.12, 0.1, 1.0), 0.06),
                 camera_affected=False),
        QuadNode("projectile", (0.3, 0.45, 0.34, 0.49), z=0.4, shader="flat",
                 tint=(0.9, 0.2, 0.1, 1.0),
                 position_fn=_sweep(0.02, 0.4), camera_affected=False),
    ]
    return Scene(nodes, StaticCamera(), clear_color=(0.2, 0.3, 0.2, 1))


def _build_coc(tex: _TextureBank) -> Scene:
    """Clash of Clans: static village, two animated units, occasional
    map drags (camera nudges)."""
    nodes = [
        QuadNode("map", (-0.3, -0.3, 1.3, 1.3), z=0.9, shader="textured", subdivide=10,
                 texture=tex.noise(5, base=(0.4, 0.55, 0.35, 1), amplitude=0.25, size=512),
                 uv_scale=2.0),
        QuadNode("townhall", (0.4, 0.4, 0.6, 0.62), z=0.6, shader="textured",
                 texture=tex.checker((0.6, 0.45, 0.3, 1), (0.5, 0.35, 0.2, 1),
                                     cells=4)),
        QuadNode("barracks", (0.15, 0.6, 0.3, 0.75), z=0.6, shader="textured",
                 texture=tex.checker((0.55, 0.5, 0.45, 1), (0.4, 0.38, 0.33, 1),
                                     cells=4)),
        QuadNode("worker-a", (0.3, 0.3, 0.34, 0.35), z=0.4, shader="flat",
                 tint=(0.9, 0.8, 0.2, 1),
                 position_fn=_orbit(0.0, 0.0, 0.04, 20)),
        QuadNode("worker-b", (0.65, 0.68, 0.69, 0.73), z=0.4, shader="flat",
                 tint=(0.2, 0.8, 0.9, 1),
                 position_fn=_orbit(0.0, 0.0, 0.05, 26)),
    ]
    return Scene(nodes, ShakeCamera(period=32, magnitude=0.02, burst=2),
                 clear_color=(0.25, 0.35, 0.25, 1))


def _build_ctr(tex: _TextureBank) -> Scene:
    """Cut the Rope: static background, a swinging candy, plus a mover
    hidden behind the opaque HUD (equal colors, different inputs)."""
    nodes = [
        QuadNode("cardboard", (0.0, 0.0, 1.0, 1.0), z=0.9, shader="textured", subdivide=10,
                 texture=tex.noise(7, base=(0.6, 0.45, 0.3, 1), amplitude=0.15, size=512),
                 camera_affected=False),
        QuadNode("hud", (0.0, 0.0, 1.0, 0.12), z=0.2, shader="flat", subdivide=4,
                 tint=(0.25, 0.18, 0.12, 1.0), camera_affected=False),
        # Drawn after the HUD but *behind* it: early-Z culls it, so its
        # per-frame attribute changes never alter the HUD tiles' colors.
        QuadNode("occluded-spider", (0.4, 0.02, 0.48, 0.1), z=0.5,
                 shader="flat", tint=(0.1, 0.1, 0.1, 1.0),
                 position_fn=_sweep(0.015, 0.3), camera_affected=False),
        QuadNode("candy", (0.4, 0.3, 0.56, 0.5), z=0.4, shader="flat",
                 tint=(0.9, 0.3, 0.4, 1.0),
                 position_fn=_swing(0.22, 30), camera_affected=False),
        QuadNode("om-nom", (0.42, 0.75, 0.58, 0.92), z=0.4, shader="flat",
                 tint=(0.2, 0.65, 0.25, 1.0),
                 tint_fn=_pulse(9, (0.2, 0.6, 0.25, 1.0), 0.08),
                 camera_affected=False),
    ]
    return Scene(nodes, StaticCamera(), clear_color=(0.4, 0.3, 0.2, 1))


def _build_hop(tex: _TextureBank) -> Scene:
    """Hopeless: dark cave, mostly black tiles, two small characters.

    The black expanse means few distinct fragment signatures — the one
    workload where Fragment Memoization's small LUT shines (Fig. 16)."""
    nodes = [
        QuadNode("darkness", (0.0, 0.0, 1.0, 1.0), z=0.9, shader="flat", subdivide=10,
                 tint=(0.0, 0.0, 0.0, 1.0), camera_affected=False),
        QuadNode("lantern-glow", (0.35, 0.55, 0.6, 0.8), z=0.7,
                 shader="textured",
                 texture=tex.gradient((0.25, 0.2, 0.05, 1), (0.05, 0.04, 0.01, 1), size=256),
                 camera_affected=False),
        QuadNode("blob-a", (0.42, 0.6, 0.47, 0.66), z=0.4, shader="flat",
                 tint=(0.7, 0.7, 0.6, 1),
                 position_fn=_orbit(0.0, 0.0, 0.02, 14),
                 camera_affected=False),
        QuadNode("blob-b", (0.52, 0.62, 0.56, 0.67), z=0.4, shader="flat",
                 tint=(0.6, 0.65, 0.55, 1),
                 position_fn=_sweep(0.01, 0.1), camera_affected=False),
        # A monster prowling the darkness, drawn in the exact darkness
        # color: its attributes churn ~35% of tiles every frame but the
        # rendered pixels stay black -- redundancy only Transaction
        # Elimination (or fragment memoization) can see.
        QuadNode("shadow-monster", (0.03, 0.05, 0.75, 0.55), z=0.6,
                 shader="flat", subdivide=6, tint=(0.0, 0.0, 0.0, 1.0),
                 position_fn=_orbit(0.0, 0.0, 0.1, 22),
                 camera_affected=False),
    ]
    return Scene(nodes, StaticCamera(), clear_color=(0, 0, 0, 1))


def _build_mst(tex: _TextureBank) -> Scene:
    """Modern Strike: first-person shooter, camera moving every frame.

    Every world drawcall folds the camera state into its constants, so
    every covered tile's inputs change every frame — the no-redundancy
    extreme the paper uses to bound RE's overhead."""
    walls = tex.checker((0.45, 0.42, 0.4, 1), (0.3, 0.28, 0.27, 1), cells=16,
                        size=512)
    floor = tex.noise(11, base=(0.3, 0.3, 0.32, 1), amplitude=0.3, size=512)
    nodes = [
        QuadNode("corridor", (0.0, 0.0, 1.0, 0.6), z=0.9, shader="scrolling", subdivide=10,
                 texture=walls, camera_uv=True, uv_scale=2.0),
        QuadNode("floor", (0.0, 0.55, 1.0, 1.0), z=0.8, shader="scrolling", subdivide=10,
                 texture=floor, camera_uv=True, uv_scale=3.0),
        QuadNode("enemy", (0.55, 0.35, 0.65, 0.55), z=0.5, shader="textured",
                 texture=tex.checker((0.5, 0.2, 0.2, 1), (0.3, 0.1, 0.1, 1),
                                     cells=2),
                 position_fn=_orbit(0.0, 0.0, 0.06, 18)),
        QuadNode("weapon", (0.6, 0.75, 0.95, 1.0), z=0.3, shader="textured",
                 texture=tex.gradient((0.2, 0.2, 0.22, 1), (0.05, 0.05, 0.06, 1)),
                 camera_affected=False,
                 position_fn=_orbit(0.0, 0.0, 0.004, 8)),  # weapon bob
    ]
    return Scene(nodes, ContinuousCamera(speed=0.015, yaw_amplitude=0.2),
                 clear_color=(0.1, 0.1, 0.12, 1))


def _build_abi(tex: _TextureBank) -> Scene:
    """Angry Birds: aim phases (static) alternating with flight phases
    where the camera pans across a flat-colored sky.

    During pans the sky tiles' inputs change (translated constants and
    attributes) while their colors do not — the equal-colors /
    different-inputs population where TE can beat RE (Section V)."""
    episodes = [(6, 22, 0.012, 0.0), (26, 46, -0.010, 0.0)]
    sky = tex.flat((0.45, 0.75, 0.95, 1.0))
    nodes = [
        # Oversized so pans never expose the clear color.
        QuadNode("sky", (-0.8, 0.0, 1.8, 0.75), z=0.9, shader="textured", subdivide=10,
                 texture=sky),
        QuadNode("ground", (-0.8, 0.7, 1.8, 1.0), z=0.8, shader="textured", subdivide=10,
                 texture=tex.noise(13, base=(0.35, 0.6, 0.25, 1),
                                   amplitude=0.25, size=512), uv_scale=2.0),
        QuadNode("slingshot", (0.12, 0.45, 0.2, 0.75), z=0.5,
                 shader="textured",
                 texture=tex.checker((0.4, 0.25, 0.15, 1),
                                     (0.3, 0.18, 0.1, 1), cells=2)),
        QuadNode("bird", (0.14, 0.42, 0.2, 0.49), z=0.4, shader="flat",
                 tint=(0.85, 0.15, 0.15, 1.0),
                 position_fn=_sweep(0.01, 0.05)),
        QuadNode("structure", (0.7, 0.4, 0.92, 0.75), z=0.5,
                 shader="textured",
                 texture=tex.checker((0.55, 0.45, 0.3, 1),
                                     (0.45, 0.35, 0.22, 1), cells=4)),
    ]
    return Scene(nodes, EpisodicCamera(episodes),
                 clear_color=(0.45, 0.75, 0.95, 1))


def _build_csn(tex: _TextureBank) -> Scene:
    """Crazy Snowboard: downhill runs over flat snow alternating with
    static trick-menu pauses."""
    snow = tex.flat((0.93, 0.95, 0.98, 1.0))
    nodes = [
        QuadNode("snowfield", (0.0, 0.25, 1.0, 1.0), z=0.9, subdivide=10,
                 shader="scrolling", texture=snow, camera_uv=True),
        QuadNode("sky", (0.0, 0.0, 1.0, 0.3), z=0.95, shader="textured", subdivide=6,
                 texture=tex.gradient((0.5, 0.7, 0.95, 1), (0.8, 0.9, 1.0, 1), size=256),
                 camera_affected=False),
        QuadNode("trees", (0.05, 0.3, 0.35, 0.55), z=0.6, shader="scrolling",
                 texture=tex.checker((0.1, 0.4, 0.2, 1), (0.9, 0.95, 1.0, 1),
                                     cells=8, size=256),
                 camera_uv=True, uv_scale=2.0),
        QuadNode("rider", (0.45, 0.55, 0.55, 0.7), z=0.4, shader="textured",
                 texture=tex.checker((0.8, 0.2, 0.2, 1), (0.2, 0.2, 0.7, 1),
                                     cells=2),
                 position_fn=_orbit(0.0, 0.0, 0.015, 12),
                 camera_affected=False),
    ]

    class RunPauseCamera(ContinuousCamera):
        """Moves for 12 frames, rests for 12."""

        def state(self, frame):
            cycle = frame % 24
            moving = cycle < 12
            # Advance accumulates only during run segments.
            full, part = divmod(frame, 24)
            advanced = full * 12 + min(part, 12)
            if moving:
                return dataclasses.replace(
                    super().state(frame), advance=self.speed * advanced,
                    moving=True,
                )
            return dataclasses.replace(
                super().state(0), advance=self.speed * advanced, yaw=0.0,
                moving=False,
            )

    return Scene(nodes, RunPauseCamera(speed=0.02, yaw_amplitude=0.1),
                 clear_color=(0.9, 0.93, 0.97, 1))


def _build_ter(tex: _TextureBank) -> Scene:
    """Temple Run: continuous forward motion with static HUD bars and a
    flat-colored sky band."""
    nodes = [
        QuadNode("sky", (0.0, 0.1, 1.0, 0.35), z=0.95, shader="textured", subdivide=6,
                 texture=tex.flat((0.55, 0.75, 0.9, 1.0)),
                 camera_affected=False),
        QuadNode("temple-path", (0.0, 0.3, 1.0, 0.9), z=0.9, subdivide=10,
                 shader="scrolling",
                 texture=tex.checker((0.5, 0.4, 0.25, 1), (0.4, 0.3, 0.2, 1),
                                     cells=8, size=512),
                 camera_uv=True, uv_scale=2.0),
        QuadNode("runner", (0.46, 0.55, 0.54, 0.72), z=0.4,
                 shader="textured",
                 texture=tex.checker((0.8, 0.6, 0.3, 1), (0.5, 0.3, 0.2, 1),
                                     cells=2),
                 position_fn=_orbit(0.0, 0.0, 0.01, 10),
                 camera_affected=False),
        QuadNode("hud-top", (0.0, 0.0, 1.0, 0.1), z=0.2, shader="flat", subdivide=4,
                 tint=(0.12, 0.1, 0.08, 1.0), camera_affected=False),
        QuadNode("hud-bottom", (0.0, 0.9, 1.0, 1.0), z=0.2, shader="flat", subdivide=4,
                 tint=(0.12, 0.1, 0.08, 1.0), camera_affected=False),
    ]
    return Scene(nodes, ContinuousCamera(speed=0.02, yaw_amplitude=0.05),
                 clear_color=(0.5, 0.7, 0.85, 1))


def _build_tib(tex: _TextureBank) -> Scene:
    """Tigerball: static camera physics puzzle with a rolling ball,
    short whole-scene shifts, and an occluded mover."""
    episodes = [(12, 16, 0.02, 0.01), (30, 35, -0.015, 0.0)]
    nodes = [
        QuadNode("room", (-0.2, -0.2, 1.2, 1.2), z=0.9, shader="textured", subdivide=10,
                 texture=tex.gradient((0.3, 0.4, 0.55, 1), (0.2, 0.25, 0.4, 1), size=512),
                 uv_scale=1.0),
        QuadNode("platform", (0.15, 0.65, 0.85, 0.72), z=0.6,
                 shader="textured",
                 texture=tex.checker((0.6, 0.6, 0.65, 1), (0.45, 0.45, 0.5, 1),
                                     cells=8)),
        QuadNode("panel", (0.75, 0.1, 1.0, 0.4), z=0.3, shader="flat",
                 tint=(0.15, 0.2, 0.3, 1.0)),
        QuadNode("occluded-gear", (0.8, 0.15, 0.88, 0.25), z=0.5,
                 shader="flat", tint=(0.4, 0.4, 0.1, 1.0),
                 position_fn=_orbit(0.0, 0.0, 0.03, 16)),
        QuadNode("ball", (0.28, 0.48, 0.44, 0.66), z=0.4, shader="textured",
                 texture=tex.checker((0.95, 0.6, 0.2, 1), (0.8, 0.4, 0.1, 1),
                                     cells=2),
                 position_fn=_sweep(0.02, 0.35)),
        QuadNode("counterweight", (0.1, 0.15, 0.22, 0.3), z=0.4,
                 shader="flat", tint=(0.7, 0.7, 0.75, 1.0),
                 position_fn=_sweep(0.012, 0.25, axis="y")),
    ]
    return Scene(nodes, EpisodicCamera(episodes),
                 clear_color=(0.2, 0.25, 0.4, 1))


def _build_desktop(tex: _TextureBank) -> Scene:
    """Android desktop without animations: completely static frames."""
    nodes = [
        QuadNode("wallpaper", (0.0, 0.0, 1.0, 1.0), z=0.9, shader="textured", subdivide=10,
                 texture=tex.gradient((0.2, 0.3, 0.5, 1), (0.1, 0.12, 0.25, 1), size=256),
                 camera_affected=False),
        QuadNode("dock", (0.0, 0.88, 1.0, 1.0), z=0.5, shader="flat",
                 tint=(0.1, 0.1, 0.12, 0.9), camera_affected=False),
        QuadNode("icon-grid", (0.1, 0.1, 0.9, 0.7), z=0.6, shader="textured", subdivide=6,
                 texture=tex.checker((0.8, 0.8, 0.85, 1), (0.2, 0.3, 0.5, 1),
                                     cells=8),
                 camera_affected=False),
    ]
    return Scene(nodes, StaticCamera(), clear_color=(0.1, 0.12, 0.25, 1))


def _build_antutu(tex: _TextureBank) -> Scene:
    """Antutu3D-like stress: dense, fully dynamic, heavy shading."""
    nodes = [
        QuadNode("arena", (0.0, 0.0, 1.0, 1.0), z=0.9, shader="scrolling", subdivide=10,
                 texture=tex.noise(17, base=(0.4, 0.35, 0.45, 1),
                                   amplitude=0.5, size=512),
                 camera_uv=True, uv_scale=4.0),
    ]
    for i in range(8):
        row, col = divmod(i, 4)
        x0 = 0.05 + col * 0.24
        y0 = 0.1 + row * 0.4
        nodes.append(
            QuadNode(
                f"spinner-{i}", (x0, y0, x0 + 0.18, y0 + 0.3), z=0.5,
                shader="textured",
                texture=tex.checker(
                    (0.9, 0.3 + 0.08 * i, 0.2, 1),
                    (0.2, 0.3, 0.8 - 0.08 * i, 1), cells=4,
                ),
                position_fn=_orbit(0.0, 0.0, 0.04, 9 + i),
            )
        )
    return Scene(nodes, ContinuousCamera(speed=0.03, yaw_amplitude=0.3),
                 clear_color=(0.1, 0.1, 0.1, 1))


_BUILDERS = {
    "ccs": _build_ccs,
    "cde": _build_cde,
    "coc": _build_coc,
    "ctr": _build_ctr,
    "hop": _build_hop,
    "mst": _build_mst,
    "abi": _build_abi,
    "csn": _build_csn,
    "ter": _build_ter,
    "tib": _build_tib,
    "desktop": _build_desktop,
    "antutu": _build_antutu,
}

#: Texture-id strides keep every workload's textures in disjoint
#: simulated address regions.
_TEXTURE_ID_STRIDE = 64


def build_scene(alias: str) -> Scene:
    """Instantiate the named workload scene: new node and texture
    objects on every call.

    The textures are procedural recipes, so building the scene generates
    no texel: each texture generates its texels the first time a frame
    samples it (:mod:`repro.textures.texture`), and none is shared with
    another call's scene.

    Builtin benchmarks resolve first; any other alias falls through to
    the declarative workload registry (:mod:`repro.workloads.dsl`), so a
    scene file on the search path runs everywhere a builtin does — the
    direct runner, ``--jobs`` pool workers, supervised attempts and
    service-daemon workers alike.
    """
    if alias in _BUILDERS:
        index = sorted(_BUILDERS).index(alias)
        bank = _TextureBank(base_id=index * _TEXTURE_ID_STRIDE)
        return _BUILDERS[alias](bank)
    from .dsl import registry as dsl_registry

    if dsl_registry.is_dsl_alias(alias):
        return dsl_registry.build_dsl_scene(alias)
    raise ReproError(unknown_workload_message(alias))


def builtin_aliases() -> tuple:
    """Every hard-coded workload alias (games + pseudo-workloads)."""
    return tuple(sorted(_BUILDERS))


def all_workload_aliases() -> tuple:
    """Every renderable alias: builtins plus discovered DSL workloads."""
    from .dsl import registry as dsl_registry

    return builtin_aliases() + tuple(
        alias for alias in dsl_registry.dsl_aliases()
        if alias not in _BUILDERS
    )


def suggest_aliases(alias: str, limit: int = 3) -> tuple:
    """Closest known aliases to a misspelled one (did-you-mean)."""
    import difflib

    return tuple(difflib.get_close_matches(
        alias, all_workload_aliases(), n=limit, cutoff=0.5,
    ))


def unknown_workload_message(alias: str) -> str:
    """The canonical unknown-alias error text, with a did-you-mean and
    the full registered-workload list (builtin and DSL)."""
    suggestions = suggest_aliases(alias)
    hint = (f"; did you mean {' or '.join(repr(s) for s in suggestions)}?"
            if suggestions else "")
    return (
        f"unknown workload {alias!r}{hint} "
        f"(registered workloads: {', '.join(all_workload_aliases())})"
    )


def all_game_aliases() -> tuple:
    """The ten Table II aliases in the paper's figure order."""
    return FIGURE_ORDER
