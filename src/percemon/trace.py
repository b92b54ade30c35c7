"""Perception-stream data model and JSONL ingestion.

A trace is an ordered sequence of frames. Each frame is one detector and
tracker snapshot: a frame number, a timestamp in seconds, the image extent
in pixels, and the detected objects keyed by their tracker id. All types
are immutable value objects.

Wire format, one record per line (unknown fields ignored; ``width`` and
``height`` are required):

    {"frame": 0, "timestamp": 0.0, "width": 800, "height": 600,
     "objects": [{"id": 7, "class": "pedestrian", "prob": 0.92,
                  "bbox": [10, 20, 30, 60]}]}

``read_stream`` is where frames enter the program: it parses each record,
checks that frame numbers strictly increase and timestamps never decrease,
and tags any ``IngestError`` with the input line it came from. Nothing
downstream checks frame order again.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Mapping

from .errors import (
    ConfidenceOutOfRange,
    ContractViolation,
    DuplicateObjectId,
    IngestError,
    InvalidField,
    MalformedJson,
    MissingField,
    NonMonotonicFrameNumber,
    NonMonotonicTimestamp,
)

log = logging.getLogger("percemon.trace")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in image coordinates (origin top-left, y grows down)."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        for name in ("xmin", "ymin", "xmax", "ymax"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InvalidField(name, f"expected a number, got {value!r}")
            if not math.isfinite(value):
                raise InvalidField(name, "coordinate must be finite")
            object.__setattr__(self, name, float(value))
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise InvalidField(
                "bbox",
                f"inverted box [{self.xmin}, {self.ymin}, {self.xmax}, {self.ymax}]",
            )

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    def clip(self, width: float, height: float) -> "BoundingBox":
        """Clamp the box into [0, width] x [0, height]. Idempotent."""

        def clamp(v: float, hi: float) -> float:
            return min(max(v, 0.0), hi)

        return BoundingBox(
            clamp(self.xmin, width),
            clamp(self.ymin, height),
            clamp(self.xmax, width),
            clamp(self.ymax, height),
        )


@dataclass(frozen=True)
class DetectedObject:
    """One tracked detection: tracker id, class label, confidence and box."""

    object_id: int
    class_label: str
    confidence: float
    bbox: BoundingBox

    def __post_init__(self) -> None:
        if isinstance(self.object_id, bool) or not isinstance(self.object_id, int):
            raise InvalidField("id", f"expected a natural number, got {self.object_id!r}")
        if self.object_id < 0:
            raise InvalidField("id", f"object id must be non-negative, got {self.object_id}")
        if not isinstance(self.class_label, str) or not self.class_label:
            raise InvalidField("class", "class label must be a non-empty string")
        if isinstance(self.confidence, bool) or not isinstance(self.confidence, (int, float)):
            raise InvalidField("prob", f"expected a number, got {self.confidence!r}")
        if not (0.0 <= float(self.confidence) <= 1.0):
            raise ConfidenceOutOfRange(float(self.confidence))
        object.__setattr__(self, "confidence", float(self.confidence))


@dataclass(frozen=True)
class Frame:
    """One timestamped perception snapshot.

    The object map is keyed by tracker id; every box must already lie
    inside the [0, width] x [0, height] universe (ingestion clips and
    warns, so a violation here is a programming error).
    """

    frame_number: int
    timestamp: float
    width: float
    height: float
    objects: Mapping[int, DetectedObject] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.frame_number, bool) or not isinstance(self.frame_number, int):
            raise InvalidField("frame", f"expected a natural number, got {self.frame_number!r}")
        if self.frame_number < 0:
            raise InvalidField("frame", "frame number must be non-negative")
        for name in ("timestamp", "width", "height"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InvalidField(name, f"expected a number, got {value!r}")
            if not math.isfinite(value):
                raise InvalidField(name, "must be finite")
            object.__setattr__(self, name, float(value))
        _check_extent(self.width, self.height)
        for key, obj in self.objects.items():
            if key != obj.object_id:
                raise ContractViolation(f"object map key {key} != object id {obj.object_id}")
            b = obj.bbox
            if b.xmin < 0 or b.ymin < 0 or b.xmax > self.width or b.ymax > self.height:
                raise ContractViolation(
                    f"object {key} box outside the {self.width}x{self.height} universe"
                )


def _check_extent(width: float, height: float) -> None:
    if width <= 0 or height <= 0:
        raise InvalidField("width" if width <= 0 else "height", "image extent must be positive")


def make_frame(
    frame_number: int,
    timestamp: float,
    width: float,
    height: float,
    objects: Iterable[DetectedObject] = (),
) -> Frame:
    """Build a frame from a list of detections, clipping boxes into the universe.

    Out-of-universe boxes are clipped and reported with a warning, matching
    how real detectors slightly overshoot the image. Duplicate ids are an
    error.
    """
    width = _as_number("width", width)
    height = _as_number("height", height)
    # Before any box is clipped into the image, which must not be empty.
    _check_extent(width, height)
    table: dict[int, DetectedObject] = {}
    for obj in objects:
        if obj.object_id in table:
            raise DuplicateObjectId(obj.object_id)
        b = obj.bbox
        if b.xmin < 0 or b.ymin < 0 or b.xmax > width or b.ymax > height:
            log.warning(
                "frame %s: object %s box clipped to the %sx%s universe",
                frame_number, obj.object_id, width, height,
            )
            obj = DetectedObject(obj.object_id, obj.class_label, obj.confidence,
                                 b.clip(width, height))
        table[obj.object_id] = obj
    return Frame(frame_number, timestamp, width, height, table)


def _require(record: dict, name: str):
    if name not in record:
        raise MissingField(name)
    return record[name]


def _as_number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidField(name, f"expected a number, got {value!r}")
    return float(value)


def parse_frame(json_text: str) -> Frame:
    """Parse one JSONL record into a validated frame.

    Boxes falling outside [0, width] x [0, height] are clipped with a
    warning.
    """
    try:
        record = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise MalformedJson("frame record must be a JSON object")

    frame_number = _require(record, "frame")
    timestamp = _require(record, "timestamp")
    width = _require(record, "width")
    height = _require(record, "height")

    raw_objects = _require(record, "objects")
    if not isinstance(raw_objects, list):
        raise InvalidField("objects", "expected a list")

    detections = []
    for raw in raw_objects:
        if not isinstance(raw, dict):
            raise InvalidField("objects", "each object must be a JSON object")
        bbox_raw = _require(raw, "bbox")
        if not isinstance(bbox_raw, list) or len(bbox_raw) != 4:
            raise InvalidField("bbox", "expected [xmin, ymin, xmax, ymax]")
        detections.append(
            DetectedObject(
                object_id=_require(raw, "id"),
                class_label=_require(raw, "class"),
                confidence=_require(raw, "prob"),
                bbox=BoundingBox(*bbox_raw),
            )
        )
    return make_frame(frame_number, timestamp, width, height, detections)


def _plain_number(value: float):
    # Integral values serialize without a trailing ".0"; parsing restores floats.
    return int(value) if float(value).is_integer() else value


def serialize_frame(frame: Frame) -> str:
    """Render a frame as one canonical JSONL record (no trailing newline)."""
    record = {
        "frame": frame.frame_number,
        "timestamp": _plain_number(frame.timestamp),
        "width": _plain_number(frame.width),
        "height": _plain_number(frame.height),
        "objects": [
            {
                "id": obj.object_id,
                "class": obj.class_label,
                "prob": _plain_number(obj.confidence),
                "bbox": [
                    _plain_number(obj.bbox.xmin),
                    _plain_number(obj.bbox.ymin),
                    _plain_number(obj.bbox.xmax),
                    _plain_number(obj.bbox.ymax),
                ],
            }
            for obj in sorted(frame.objects.values(), key=lambda o: o.object_id)
        ],
    }
    return json.dumps(record, separators=(",", ":"))


def _decoded(line: str | bytes) -> str:
    if isinstance(line, str):
        return line
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedJson(f"not valid UTF-8: {exc.reason} at byte {exc.start}") from exc


def read_stream(source: IO[str] | IO[bytes] | Iterable[str] | Iterable[bytes]) -> Iterator[Frame]:
    """Yield frames from newline-delimited JSON records, in order.

    Accepts text or UTF-8 byte lines; blank lines are skipped but counted.
    Raises on the first malformed record or monotonicity violation: frame
    numbers must strictly increase and timestamps must not decrease
    (detectors can emit bursts with equal timestamps). The raised
    ``IngestError`` keeps its subclass and carries the 1-based input line
    in ``line``; a line that cannot be decoded, from a byte or a text-mode
    source, is a ``MalformedJson``.
    """
    prev: Frame | None = None
    number = 0
    try:
        for number, line in enumerate(source, 1):
            try:
                line = _decoded(line).strip()
                if not line:
                    continue
                frame = parse_frame(line)
                if prev is not None:
                    if frame.frame_number <= prev.frame_number:
                        raise NonMonotonicFrameNumber(prev.frame_number, frame.frame_number)
                    if frame.timestamp < prev.timestamp:
                        raise NonMonotonicTimestamp(prev.timestamp, frame.timestamp)
            except IngestError as exc:
                exc.line = number
                raise
            prev = frame
            yield frame
    except UnicodeDecodeError as exc:
        # Only a text-mode source raises this, from its iterator. It decodes a
        # chunk at a time, starting in the line after the last one returned,
        # so the bad byte's line is found by counting the newlines before it.
        error = MalformedJson(f"not valid {exc.encoding.upper()}: {exc.reason}")
        error.line = number + 1 + exc.object.count(b"\n", 0, exc.start)
        raise error from exc
