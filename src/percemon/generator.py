"""Deterministic synthetic detection streams with fault injection.

Objects are integer-grid boxes doing a small random walk inside the
central "safe" zone of the image (strictly inside the default 5 percent
margins, so they qualify as well-centered for the built-in checks), with
high confidence. Faults are injected per object and frame:

* ``drop_prob``: the object is omitted from the frame,
* ``jump_prob``: the box teleports to a fresh random position,
* ``conf_dip_prob``: the confidence dips well below the usual thresholds.

The same seed always produces byte-identical output. Deterministic
single-fault builders for tests and demos live here too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import ConfigError
from .trace import BoundingBox, DetectedObject, Frame, make_frame

CLASS_PALETTE = ("car", "pedestrian", "cyclist")
FRAME_PERIOD = 10  # frames per second of synthetic time
BOX_SIZES = (30, 60)  # least and greatest box width and height, in pixels
# Box coordinates are integers; beyond 2^53 not every integer is a double,
# and a box's width can round away to nothing.
MAX_EXTENT = 2.0 ** 53


@dataclass(frozen=True)
class GenConfig:
    frames: int
    objects: int
    drop_prob: float = 0.0
    jump_prob: float = 0.0
    conf_dip_prob: float = 0.0
    seed: int = 0
    width: float = 800.0
    height: float = 600.0

    def __post_init__(self) -> None:
        if self.frames < 0 or self.objects < 0:
            raise ConfigError("frames and objects must be non-negative")
        for name in ("drop_prob", "jump_prob", "conf_dip_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {p}")
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ConfigError("image extent must be positive and finite")
        if max(self.width, self.height) > MAX_EXTENT:
            raise ConfigError(f"image extent must be at most 2^53, got "
                              f"{self.width:g} x {self.height:g}")
        x_lo, x_hi, y_lo, y_hi = safe_zone(self.width, self.height)
        if min(x_hi - x_lo, y_hi - y_lo) < BOX_SIZES[1]:
            raise ConfigError(f"image extent {self.width:g} x {self.height:g} is too small for "
                              f"{BOX_SIZES[0]}-{BOX_SIZES[1]} px boxes inside 5% margins")


def safe_zone(width: float, height: float, margin: float = 0.05) -> tuple[int, int, int, int]:
    """Integer position bounds keeping a box strictly inside the margins."""
    x_lo = int(margin * width) + 1
    x_hi = int((1.0 - margin) * width) - 1
    y_lo = int(margin * height) + 1
    y_hi = int((1.0 - margin) * height) - 1
    return x_lo, x_hi, y_lo, y_hi


class _WalkingBox:
    def __init__(self, rng: random.Random, zone: tuple[int, int, int, int]):
        x_lo, x_hi, y_lo, y_hi = zone
        self.w = rng.randint(*BOX_SIZES)
        self.h = rng.randint(*BOX_SIZES)
        self.zone = zone
        self.x = rng.randint(x_lo, max(x_lo, x_hi - self.w))
        self.y = rng.randint(y_lo, max(y_lo, y_hi - self.h))

    def step(self, rng: random.Random) -> None:
        x_lo, x_hi, y_lo, y_hi = self.zone
        self.x = min(max(self.x + rng.randint(-3, 3), x_lo), max(x_lo, x_hi - self.w))
        self.y = min(max(self.y + rng.randint(-3, 3), y_lo), max(y_lo, y_hi - self.h))

    def teleport(self, rng: random.Random) -> None:
        x_lo, x_hi, y_lo, y_hi = self.zone
        self.x = rng.randint(x_lo, max(x_lo, x_hi - self.w))
        self.y = rng.randint(y_lo, max(y_lo, y_hi - self.h))

    @property
    def bbox(self) -> BoundingBox:
        return BoundingBox(self.x, self.y, self.x + self.w, self.y + self.h)


def generate_frames(config: GenConfig) -> list[Frame]:
    """Seeded random-walk stream; same config gives an identical stream."""
    rng = random.Random(config.seed)
    zone = safe_zone(config.width, config.height)
    boxes = {oid: _WalkingBox(rng, zone) for oid in range(1, config.objects + 1)}
    labels = {oid: CLASS_PALETTE[(oid - 1) % len(CLASS_PALETTE)] for oid in boxes}

    frames: list[Frame] = []
    for i in range(config.frames):
        detections = []
        for oid, box in boxes.items():
            if i > 0:
                if rng.random() < config.jump_prob:
                    box.teleport(rng)
                else:
                    box.step(rng)
            dropped = rng.random() < config.drop_prob
            dipped = rng.random() < config.conf_dip_prob
            confidence = round(rng.uniform(0.3, 0.65), 3) if dipped else round(rng.uniform(0.85, 0.99), 3)
            if dropped:
                continue
            detections.append(DetectedObject(oid, labels[oid], confidence, box.bbox))
        frames.append(make_frame(i, i / FRAME_PERIOD, config.width, config.height, detections))
    return frames


def _steady_object(oid: int = 1, width: float = 800.0, height: float = 600.0,
                   seed: int = 7) -> tuple[random.Random, _WalkingBox, str]:
    rng = random.Random(seed)
    box = _WalkingBox(rng, safe_zone(width, height))
    return rng, box, CLASS_PALETTE[(oid - 1) % len(CLASS_PALETTE)]


def drop_fault_trace(frames: int = 100, drop_at: int = 50, seed: int = 7,
                     width: float = 800.0, height: float = 600.0) -> list[Frame]:
    """One well-centered, high-confidence object, missing exactly at ``drop_at``."""
    if not 0 < drop_at < frames:
        raise ConfigError("drop_at must fall strictly inside the trace")
    rng, box, label = _steady_object(seed=seed, width=width, height=height)
    out = []
    for i in range(frames):
        if i > 0:
            box.step(rng)
        detections = [] if i == drop_at else [DetectedObject(1, label, 0.95, box.bbox)]
        out.append(make_frame(i, i / FRAME_PERIOD, width, height, detections))
    return out


def jump_fault_trace(frames: int = 100, jump_at: int = 50, seed: int = 7,
                     width: float = 800.0, height: float = 600.0) -> list[Frame]:
    """One object whose box teleports to a disjoint position at ``jump_at``.

    The walk is confined to the top-left corner of the safe zone before the
    jump and to the bottom-right corner after it, so the boxes at
    ``jump_at - 1`` and ``jump_at`` cannot overlap.
    """
    if not 0 < jump_at < frames:
        raise ConfigError("jump_at must fall strictly inside the trace")
    rng = random.Random(seed)
    x_lo, x_hi, y_lo, y_hi = safe_zone(width, height)
    w = h = 40
    pen_a = (x_lo, min(x_lo + 60, x_hi - w), y_lo, min(y_lo + 60, y_hi - h))
    pen_b = (max(x_hi - w - 60, x_lo), x_hi - w, max(y_hi - h - 60, y_lo), y_hi - h)
    if pen_a[1] + w > pen_b[0] or pen_a[3] + h > pen_b[2]:
        raise ConfigError("universe too small to place disjoint teleport pens")
    x, y = pen_a[0] + 10, pen_a[2] + 10
    out = []
    label = CLASS_PALETTE[0]
    for i in range(frames):
        pen = pen_a if i < jump_at else pen_b
        if i == jump_at:
            x, y = pen[0] + 10, pen[2] + 10
        elif i > 0:
            x = min(max(x + rng.randint(-3, 3), pen[0]), pen[1])
            y = min(max(y + rng.randint(-3, 3), pen[2]), pen[3])
        box = BoundingBox(x, y, x + w, y + h)
        out.append(make_frame(i, i / FRAME_PERIOD, width, height,
                              [DetectedObject(1, label, 0.95, box)]))
    return out


def stationary_trace(frames: int = 50, objects: int = 1,
                     width: float = 800.0, height: float = 600.0) -> list[Frame]:
    """Objects that never move; every consecutive overlap ratio is 1."""
    zone = safe_zone(width, height)
    x_lo, x_hi, y_lo, y_hi = zone
    out = []
    detections = []
    for oid in range(1, objects + 1):
        x = min(x_lo + (oid - 1) * 70, max(x_lo, x_hi - 50))
        detections.append(
            DetectedObject(oid, CLASS_PALETTE[(oid - 1) % len(CLASS_PALETTE)], 0.95,
                           BoundingBox(x, y_lo + 10, x + 50, y_lo + 60))
        )
    for i in range(frames):
        out.append(make_frame(i, i / FRAME_PERIOD, width, height, detections))
    return out
