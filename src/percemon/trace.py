"""Perception-stream data model and JSONL ingestion.

A trace is an ordered sequence of frames. Each frame is one detector and
tracker snapshot: a frame number, a timestamp in seconds, the image extent
in pixels, and the detected objects keyed by their tracker id, in
ascending id order. All types are immutable plain values: their
constructors check nothing. ``plain_value`` makes them (and
``spatial.Universe`` and ``monitor.Verdict``) frozen slotted dataclasses
whose ``__init__`` stores each field through its slot descriptor.

Wire format, one record per line (unknown fields ignored; ``width`` and
``height`` are required):

    {"frame": 0, "timestamp": 0.0, "width": 800, "height": 600,
     "objects": [{"id": 7, "class": "pedestrian", "prob": 0.92,
                  "bbox": [10, 20, 30, 60]}]}

``_checked_frame`` is the one place where field values are checked and
converted to float, and it states each field rule once. A value of exact
type int or float is converted inline; the helpers ``_number``,
``_coordinate``, ``_finite`` and ``_natural`` only word a rejection, or
accept a value whose type subclasses int or float. ``parse_frame`` checks
only the JSON shape of a record and hands it the raw values; ``make_frame``
is the checked constructor for library callers. Frame fields are checked
before any object, and every object before any box is clipped into the
image. ``read_stream`` is where frames enter the program: it parses each
record, checks that frame numbers strictly increase and timestamps never
decrease, and tags any ``IngestError`` with the input line it came from.
Nothing downstream checks a frame again.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import IO, Any, Iterable, Iterator, Mapping, Sequence

from .errors import (
    ConfidenceOutOfRange,
    DuplicateObjectId,
    IngestError,
    InvalidField,
    MalformedJson,
    MissingField,
    NonMonotonicFrameNumber,
    NonMonotonicTimestamp,
)

log = logging.getLogger("percemon.trace")

_NO_VALUE = object()


def plain_value(cls):
    """Make ``cls`` a frozen slotted dataclass with a cheap ``__init__``.

    The dataclass keeps its value equality, hash and repr, and assigning a
    field still raises ``FrozenInstanceError``. Only ``__init__`` is
    replaced: the dataclass one sets each field through
    ``object.__setattr__``, this one stores it through the field's slot
    descriptor, which skips the attribute lookup and takes about two thirds
    of the time. A ``default_factory`` runs when its argument is left out;
    the records use no other kind of default.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    scope = {"_NO_VALUE": _NO_VALUE}
    params, body = [], []
    for f in fields(cls):
        scope[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default_factory is not MISSING:
            scope[f"_make_{f.name}"] = f.default_factory
            params.append(f"{f.name}=_NO_VALUE")
            body.append(f"    if {f.name} is _NO_VALUE: {f.name} = _make_{f.name}()")
        else:
            params.append(f.name)
        body.append(f"    _set_{f.name}(self, {f.name})")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body), scope)
    cls.__init__ = scope["__init__"]
    return cls


@plain_value
class BoundingBox:
    """Axis-aligned box in image coordinates (origin top-left, y grows down)."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

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


@plain_value
class DetectedObject:
    """One tracked detection: tracker id, class label, confidence and box."""

    object_id: int
    class_label: str
    confidence: float
    bbox: BoundingBox


@plain_value
class Frame:
    """One timestamped perception snapshot.

    The object map is keyed by tracker id in ascending id order, and every
    box lies inside the [0, width] x [0, height] universe. ``make_frame``,
    ``parse_frame`` and ``read_stream`` establish this; a frame built
    directly is taken as given.
    """

    frame_number: int
    timestamp: float
    width: float
    height: float
    objects: Mapping[int, DetectedObject] = field(default_factory=dict)


# The wording of ``_checked_frame``'s rejections. The field rules are stated
# there; these helpers run only to word a value that a rule turned down, or to
# accept a value whose type subclasses int or float, a number as a plain float.


def _number(name: str, value: Any) -> float:
    """A JSON number as a float; an integer beyond the float range is infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidField(name, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _coordinate(value: Any) -> float:
    """A number as a float, anything else as NaN, which ``_finite`` words in corner order."""
    try:
        return _number("", value)
    except InvalidField:
        return math.nan


def _finite(name: str, value: Any) -> None:
    if not math.isfinite(_number(name, value)):
        raise InvalidField(name, "coordinate must be finite")


def _natural(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidField(name, f"expected a natural number, got {value!r}")


# One detection's raw fields: id, class, prob and the four bbox coordinates.
_RawObject = tuple[Any, Any, Any, Sequence[Any]]


def _checked_frame(
    frame_number: Any, timestamp: Any, width: Any, height: Any, objects: Iterable[_RawObject]
) -> Frame:
    """The one validator of frame field values, for parsed and built frames.

    Checks the frame's own fields, then each object in turn, and only then
    clips boxes that reach outside the image (with a warning), so no
    warning precedes an error. Each field is checked once, in wording
    order, and the first rule that fails raises. Objects go into the map in
    ascending id order.
    """
    real, inf = (int, float), math.inf
    if type(frame_number) is not int:
        _natural("frame", frame_number)
    if frame_number < 0:
        raise InvalidField("frame", "frame number must be non-negative")
    try:
        t = float(timestamp) if type(timestamp) in real else _number("timestamp", timestamp)
    except OverflowError:
        t = _number("timestamp", timestamp)
    if not -inf < t < inf:
        raise InvalidField("timestamp", "must be finite")
    try:
        w = float(width) if type(width) in real else _number("width", width)
        h = float(height) if type(height) in real else _number("height", height)
    except OverflowError:
        w, h = _number("width", width), _number("height", height)
    if w <= 0 or h <= 0:
        raise InvalidField("width" if w <= 0 else "height", "image extent must be positive")
    if not w < inf:
        raise InvalidField("width", "must be finite")
    if not h < inf:
        raise InvalidField("height", "must be finite")

    table: dict[int, DetectedObject] = {}
    clipped = []
    ascending = True
    last = -1
    for object_id, label, prob, (xmin, ymin, xmax, ymax) in objects:
        try:
            x1 = float(xmin) if type(xmin) in real else _coordinate(xmin)
            y1 = float(ymin) if type(ymin) in real else _coordinate(ymin)
            x2 = float(xmax) if type(xmax) in real else _coordinate(xmax)
            y2 = float(ymax) if type(ymax) in real else _coordinate(ymax)
        except OverflowError:
            x1 = math.nan  # fails the test below before it reads an unset coordinate
        if not (-inf < x1 <= x2 < inf and -inf < y1 <= y2 < inf):
            _finite("xmin", xmin)
            _finite("ymin", ymin)
            _finite("xmax", xmax)
            _finite("ymax", ymax)
            raise InvalidField("bbox", f"inverted box [{x1}, {y1}, {x2}, {y2}]")
        if type(object_id) is not int:
            _natural("id", object_id)
        if object_id < 0:
            raise InvalidField("id", f"object id must be non-negative, got {object_id}")
        if not isinstance(label, str) or not label:
            raise InvalidField("class", "class label must be a non-empty string")
        try:
            p = float(prob) if type(prob) in real else _number("prob", prob)
        except OverflowError:
            p = _number("prob", prob)
        if not 0.0 <= p <= 1.0:
            raise ConfidenceOutOfRange(p)
        if object_id in table:
            raise DuplicateObjectId(object_id)
        box = BoundingBox(x1, y1, x2, y2)
        if x1 < 0 or y1 < 0 or x2 > w or y2 > h:
            box = box.clip(w, h)
            clipped.append(object_id)
        table[object_id] = DetectedObject(object_id, label, p, box)
        ascending = ascending and object_id > last
        last = object_id

    for object_id in clipped:
        log.warning(
            "frame %s: object %s box clipped to the %sx%s universe",
            frame_number, object_id, w, h,
        )
    if not ascending:
        table = dict(sorted(table.items()))
    return Frame(frame_number, t, w, h, table)


def make_frame(
    frame_number: int,
    timestamp: float,
    width: float,
    height: float,
    objects: Iterable[DetectedObject] = (),
) -> Frame:
    """Build a checked frame from a list of detections, clipping boxes into the universe.

    The detections' fields are checked as ingest checks them, with the same
    errors. Out-of-universe boxes are clipped and reported with a warning,
    matching how real detectors slightly overshoot the image. Duplicate ids
    are an error.
    """
    return _checked_frame(frame_number, timestamp, width, height, (
        (obj.object_id, obj.class_label, obj.confidence,
         (obj.bbox.xmin, obj.bbox.ymin, obj.bbox.xmax, obj.bbox.ymax))
        for obj in objects
    ))


def _raw_objects(raw_objects: list) -> Iterator[_RawObject]:
    """The raw fields of each object record, after its JSON shape is checked."""
    for raw in raw_objects:
        if not isinstance(raw, dict):
            raise InvalidField("objects", "each object must be a JSON object")
        try:
            bbox = raw["bbox"]
        except KeyError:
            raise MissingField("bbox") from None
        if not isinstance(bbox, list) or len(bbox) != 4:
            raise InvalidField("bbox", "expected [xmin, ymin, xmax, ymax]")
        try:
            values = raw["id"], raw["class"], raw["prob"], bbox
        except KeyError as exc:
            raise MissingField(exc.args[0]) from None
        yield values


def parse_frame(json_text: str) -> Frame:
    """Parse one JSONL record into a validated frame.

    Boxes falling outside [0, width] x [0, height] are clipped with a
    warning. A record that lacks several required fields is reported
    missing the first of them, in the order frame, timestamp, width,
    height, objects (and bbox, id, class, prob within an object).
    """
    try:
        record = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise MalformedJson("frame record must be a JSON object")
    try:
        frame_number, timestamp, width, height, raw_objects = (
            record["frame"], record["timestamp"], record["width"], record["height"],
            record["objects"],
        )
    except KeyError as exc:
        raise MissingField(exc.args[0]) from None
    if not isinstance(raw_objects, list):
        raise InvalidField("objects", "expected a list")
    return _checked_frame(frame_number, timestamp, width, height, _raw_objects(raw_objects))


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
            for obj in frame.objects.values()
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
