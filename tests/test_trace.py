import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percemon.errors import (
    ConfidenceOutOfRange,
    DuplicateObjectId,
    IngestError,
    InvalidField,
    MalformedJson,
    MissingField,
    NonMonotonicFrameNumber,
    NonMonotonicTimestamp,
)
from percemon.monitor import Verdict
from percemon.trace import (
    BoundingBox,
    DetectedObject,
    Frame,
    make_frame,
    parse_frame,
    read_stream,
    serialize_frame,
)

from randgen import Universe


def test_parse_empty_frame():
    frame = parse_frame('{"frame":0,"timestamp":0.0,"width":100,"height":100,"objects":[]}')
    assert frame == Frame(0, 0.0, 100.0, 100.0, {})


def test_parse_single_object():
    line = ('{"frame":3,"timestamp":0.1,"width":800,"height":600,'
            '"objects":[{"id":7,"class":"pedestrian","prob":0.92,"bbox":[10,20,30,60]}]}')
    frame = parse_frame(line)
    assert frame.frame_number == 3
    assert set(frame.objects) == {7}
    obj = frame.objects[7]
    assert obj.class_label == "pedestrian"
    assert obj.confidence == 0.92
    assert obj.bbox == BoundingBox(10, 20, 30, 60)


def test_parse_confidence_out_of_range():
    line = ('{"frame":0,"timestamp":0.0,"width":100,"height":100,'
            '"objects":[{"id":1,"class":"car","prob":1.5,"bbox":[0,0,10,10]}]}')
    with pytest.raises(ConfidenceOutOfRange):
        parse_frame(line)


def test_parse_malformed_json():
    with pytest.raises(MalformedJson):
        parse_frame("{not json")
    with pytest.raises(MalformedJson):
        parse_frame("[1, 2, 3]")


RECORD = '{"frame":0,"timestamp":0.0,"width":100,"height":100,"objects":[]}'


@pytest.mark.parametrize("text", [
    "", " ", "{not json", '{"frame":0', RECORD + "x", RECORD + " {}", RECORD + RECORD,
    "\ufeff" + RECORD, "\x0b" + RECORD, RECORD + "\u00a0", "[1, 2] ]", "nan", "'a'",
])
def test_malformed_json_is_worded_as_json_loads_words_it(text):
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    with pytest.raises(MalformedJson) as got:
        parse_frame(text)
    assert str(got.value) == f"not valid JSON: {expected.value}"


@pytest.mark.parametrize("text", [
    RECORD, " " + RECORD, RECORD + "\r\n", "\t\n" + RECORD + " \t ",
])
def test_json_whitespace_around_a_record_is_accepted(text):
    assert parse_frame(text) == parse_frame(RECORD) == Frame(0, 0.0, 100.0, 100.0, {})


def test_parse_missing_fields():
    with pytest.raises(MissingField):
        parse_frame('{"timestamp":0.0,"width":100,"height":100,"objects":[]}')
    with pytest.raises(MissingField):
        parse_frame('{"frame":0,"timestamp":0.0,"objects":[]}')
    with pytest.raises(MissingField):
        parse_frame('{"frame":0,"timestamp":0.0,"width":100,"height":100}')


def test_parse_duplicate_object_id():
    line = ('{"frame":0,"timestamp":0.0,"width":100,"height":100,"objects":['
            '{"id":1,"class":"car","prob":0.5,"bbox":[0,0,10,10]},'
            '{"id":1,"class":"car","prob":0.6,"bbox":[5,5,15,15]}]}')
    with pytest.raises(DuplicateObjectId):
        parse_frame(line)


def test_parse_unknown_fields_ignored():
    line = ('{"frame":0,"timestamp":0.0,"width":100,"height":100,"objects":[],'
            '"camera":"front","extra":[1,2]}')
    assert parse_frame(line).frame_number == 0


def test_out_of_universe_box_clipped_with_warning(caplog):
    line = ('{"frame":0,"timestamp":0.0,"width":100,"height":100,'
            '"objects":[{"id":1,"class":"car","prob":0.5,"bbox":[-5,0,5,5]}]}')
    with caplog.at_level("WARNING", logger="percemon.trace"):
        frame = parse_frame(line)
    assert frame.objects[1].bbox == BoundingBox(0, 0, 5, 5)
    assert any("clipped" in record.message for record in caplog.records)


def test_inverted_box_rejected():
    with pytest.raises(InvalidField):
        make_frame(0, 0.0, 100, 100, [DetectedObject(1, "car", 0.5, BoundingBox(10, 0, 0, 10))])


def test_non_finite_coordinates_rejected():
    with pytest.raises(InvalidField):
        make_frame(0, 0.0, 100, 100, [DetectedObject(1, "car", 0.5, BoundingBox(0, 0, math.inf, 10))])


def test_empty_class_label_rejected():
    with pytest.raises(InvalidField):
        make_frame(0, 0.0, 100, 100, [DetectedObject(1, "", 0.5, BoundingBox(0, 0, 1, 1))])


def test_read_stream_in_order():
    lines = io.StringIO(
        '{"frame":0,"timestamp":0.0,"width":10,"height":10,"objects":[]}\n'
        "\n"
        '{"frame":1,"timestamp":0.1,"width":10,"height":10,"objects":[]}\n'
    )
    frames = list(read_stream(lines))
    assert [f.frame_number for f in frames] == [0, 1]


def test_read_stream_accepts_byte_lines():
    lines = io.BytesIO(
        b'{"frame":0,"timestamp":0.0,"width":10,"height":10,"objects":[]}\n'
        b'{"frame":1,"timestamp":0.1,"width":10,"height":10,"objects":[]}\n'
    )
    assert [f.frame_number for f in read_stream(lines)] == [0, 1]


def test_read_stream_non_monotonic_frame_number():
    lines = io.StringIO(
        '{"frame":0,"timestamp":0.0,"width":10,"height":10,"objects":[]}\n'
        '{"frame":0,"timestamp":0.1,"width":10,"height":10,"objects":[]}\n'
    )
    with pytest.raises(NonMonotonicFrameNumber):
        list(read_stream(lines))


def test_read_stream_non_monotonic_timestamp():
    lines = io.StringIO(
        '{"frame":0,"timestamp":0.2,"width":10,"height":10,"objects":[]}\n'
        '{"frame":1,"timestamp":0.1,"width":10,"height":10,"objects":[]}\n'
    )
    with pytest.raises(NonMonotonicTimestamp):
        list(read_stream(lines))


def test_read_stream_allows_equal_timestamps():
    lines = [
        '{"frame":0,"timestamp":0.5,"width":10,"height":10,"objects":[]}',
        '{"frame":1,"timestamp":0.5,"width":10,"height":10,"objects":[]}',
    ]
    assert [f.timestamp for f in read_stream(lines)] == [0.5, 0.5]


def _record(frame, timestamp=None, objects="[]"):
    timestamp = frame / 10 if timestamp is None else timestamp
    return (f'{{"frame":{frame},"timestamp":{timestamp},"width":10,"height":10,'
            f'"objects":{objects}}}')


@pytest.mark.parametrize("bad_line, error", [
    ("{not json", MalformedJson),
    (_record(9, objects='[{"id":1,"class":"car","prob":0.5,"bbox":[5,5,1,1]}]'), InvalidField),
    (_record(9, objects='[{"id":1,"class":"car","prob":2,"bbox":[0,0,1,1]}]'), ConfidenceOutOfRange),
    (_record(1), NonMonotonicFrameNumber),
    (_record(9, timestamp=0.0), NonMonotonicTimestamp),
])
def test_read_stream_locates_errors_by_input_line(bad_line, error):
    # Line 3 is blank and still counts, so the bad record is on line 5.
    lines = [_record(0), _record(1), "", _record(2), bad_line, _record(10)]
    frames = read_stream(lines)
    assert [next(frames).frame_number for _ in range(3)] == [0, 1, 2]
    with pytest.raises(error) as info:
        next(frames)
    assert info.value.line == 5
    assert str(info.value).startswith("line 5: ")


def test_unlocated_ingest_error_message_is_unchanged():
    with pytest.raises(InvalidField) as info:
        parse_frame(_record(0, objects='[{"id":1,"class":"car","prob":0.5,"bbox":[5,5,1,1]}]'))
    assert info.value.line is None
    assert str(info.value) == "invalid field 'bbox': inverted box [5.0, 5.0, 1.0, 1.0]"


BBOX_MESSAGE = "invalid field 'bbox': expected [xmin, ymin, xmax, ymax]"
NOT_AN_OBJECT = "invalid field 'objects': each object must be a JSON object"


# Each rejection of the JSON shape of ``objects``. Within an object the bbox
# is checked first, then id, class and prob are looked up in that order.
@pytest.mark.parametrize("objects, error, message", [
    ('{"id":1}', InvalidField, "invalid field 'objects': expected a list"),
    ('"car"', InvalidField, "invalid field 'objects': expected a list"),
    ("[1]", InvalidField, NOT_AN_OBJECT),
    ('[{"id":1,"class":"car","prob":0.5,"bbox":[0,0,5,5]}, []]', InvalidField, NOT_AN_OBJECT),
    ('[{"id":1,"class":"car","prob":0.5}]', MissingField, "missing required field 'bbox'"),
    ('[{"id":1,"class":"car","prob":0.5,"bbox":[0,0,5]}]', InvalidField, BBOX_MESSAGE),
    ('[{"id":1,"class":"car","prob":0.5,"bbox":[0,0,5,5,5]}]', InvalidField, BBOX_MESSAGE),
    ('[{"id":1,"class":"car","prob":0.5,"bbox":{"xmin":0}}]', InvalidField, BBOX_MESSAGE),
    ('[{"id":1,"class":"car","prob":0.5,"bbox":"0,0,5,5"}]', InvalidField, BBOX_MESSAGE),
    ('[{"class":"car","prob":0.5,"bbox":[0,0,5,5]}]', MissingField, "missing required field 'id'"),
    ('[{"id":1,"prob":0.5,"bbox":[0,0,5,5]}]', MissingField, "missing required field 'class'"),
    ('[{"id":1,"class":"car","bbox":[0,0,5,5]}]', MissingField, "missing required field 'prob'"),
    # The documented order: bbox, then id, class, prob.
    ("[{}]", MissingField, "missing required field 'bbox'"),
    ('[{"bbox":[0,0,5]}]', InvalidField, BBOX_MESSAGE),
    ('[{"bbox":[0,0,5,5]}]', MissingField, "missing required field 'id'"),
    ('[{"bbox":[0,0,5,5],"prob":0.5}]', MissingField, "missing required field 'id'"),
    ('[{"bbox":[0,0,5,5],"id":1}]', MissingField, "missing required field 'class'"),
    ('[{"bbox":[0,0,5,5],"id":1,"class":"car"}]', MissingField, "missing required field 'prob'"),
])
def test_object_shape_rejections_name_the_field_and_the_line(objects, error, message):
    with pytest.raises(IngestError) as info:
        parse_frame(_record(0, objects=objects))
    assert type(info.value) is error
    assert str(info.value) == message
    # Through ``read_stream`` the same error names its input line.
    frames = read_stream([_record(0), _record(1, objects=objects)])
    assert next(frames).frame_number == 0
    with pytest.raises(IngestError) as info:
        next(frames)
    assert type(info.value) is error
    assert (info.value.line, str(info.value)) == (2, f"line 2: {message}")


def _count_boxes(monkeypatch) -> list:
    built = []
    original = BoundingBox.__init__

    def counting(self, *coordinates):
        built.append(self)
        original(self, *coordinates)

    monkeypatch.setattr(BoundingBox, "__init__", counting)
    return built


@pytest.mark.parametrize("count", [0, 1, 4])
def test_in_universe_boxes_are_validated_once(monkeypatch, count):
    objects = ",".join(
        f'{{"id":{i},"class":"car","prob":0.5,"bbox":[{i},{i},{i + 1},{i + 2}]}}'
        for i in range(count)
    )
    built = _count_boxes(monkeypatch)
    frame = parse_frame(_record(0, objects=f"[{objects}]"))
    assert len(frame.objects) == count
    assert len(built) == count


@pytest.mark.parametrize("bbox, clipped", [
    ([-5, 2, 5, 8], (0, 2, 5, 8)),
    ([2, -5, 8, 5], (2, 0, 8, 5)),
    ([5, 2, 15, 8], (5, 2, 10, 8)),
    ([2, 5, 8, 15], (2, 5, 8, 10)),
])
def test_out_of_universe_box_is_rebuilt_once(monkeypatch, bbox, clipped):
    built = _count_boxes(monkeypatch)
    frame = parse_frame(_record(0, objects=f'[{{"id":1,"class":"car","prob":0.5,"bbox":{bbox}}}]'))
    assert len(built) == 2  # the parsed box and its clip
    assert frame.objects[1].bbox == BoundingBox(*clipped)


@pytest.mark.parametrize("extent, name", [('"width":0,"height":10', "width"),
                                          ('"width":10,"height":-1', "height")])
def test_parse_rejects_non_positive_extent(extent, name):
    line = f'{{"frame":0,"timestamp":0.0,{extent},"objects":[]}}'
    with pytest.raises(InvalidField, match=f"'{name}': image extent must be positive"):
        parse_frame(line)


@pytest.mark.parametrize("fields, message", [
    pytest.param('"frame":0,"timestamp":0.0,"width":0,"height":10',
                 "invalid field 'width': image extent must be positive",
                 id='"width":0,"height":10-width'),
    pytest.param('"frame":0,"timestamp":0.0,"width":10,"height":-1',
                 "invalid field 'height': image extent must be positive",
                 id='"width":10,"height":-1-height'),
    pytest.param('"frame":-1,"timestamp":0.0,"width":10,"height":10',
                 "invalid field 'frame': frame number must be non-negative", id="frame"),
    pytest.param('"frame":0,"timestamp":NaN,"width":10,"height":10',
                 "invalid field 'timestamp': must be finite", id="timestamp"),
])
def test_non_positive_extent_is_rejected_before_any_clip(caplog, fields, message):
    # The box reaches outside the image in every case, so it would be clipped.
    box = '{"id":1,"class":"car","prob":0.5,"bbox":[0,0,50,50]}'
    line = f'{{{fields},"objects":[{box}]}}'
    with caplog.at_level("DEBUG", logger="percemon"):
        with pytest.raises(InvalidField) as info:
            list(read_stream([line]))
    assert str(info.value) == f"line 1: {message}"
    assert caplog.records == []


@pytest.mark.parametrize("good_lines", [1, 3, 400])
def test_text_source_that_cannot_decode_is_a_located_error(tmp_path, good_lines):
    # 400 good lines put the bad one past the first chunk a text file decodes.
    path = tmp_path / "trace.jsonl"
    good = "".join(_record(i) + "\n" for i in range(good_lines)).encode()
    path.write_bytes(good + b"\xff\xfe\n" + _record(good_lines).encode() + b"\n")
    with open(path, encoding="utf-8") as source:
        frames = read_stream(source)
        with pytest.raises(MalformedJson) as info:
            list(frames)
    assert info.value.line == good_lines + 1
    assert str(info.value) == f"line {good_lines + 1}: not valid UTF-8: invalid start byte"


coordinates = st.floats(min_value=0, max_value=100, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    x1, x2 = sorted((draw(coordinates), draw(coordinates)))
    y1, y2 = sorted((draw(coordinates), draw(coordinates)))
    return BoundingBox(x1, y1, x2, y2)


@st.composite
def frames(draw):
    count = draw(st.integers(0, 4))
    detections = [
        DetectedObject(
            oid,
            draw(st.sampled_from(["car", "pedestrian", "müller"])),
            draw(st.floats(min_value=0, max_value=1, allow_nan=False)),
            draw(boxes()),
        )
        for oid in range(1, count + 1)
    ]
    return make_frame(
        draw(st.integers(0, 10_000)),
        draw(st.floats(min_value=0, max_value=1e6, allow_nan=False)),
        100.0,
        100.0,
        detections,
    )


@given(frames())
def test_serialize_parse_round_trip(frame):
    assert parse_frame(serialize_frame(frame)) == frame


@given(boxes())
def test_clipping_is_idempotent(box):
    clipped = box.clip(80.0, 60.0)
    assert clipped.clip(80.0, 60.0) == clipped


@given(st.lists(st.integers(0, 50), min_size=0, max_size=10, unique=True))
def test_read_stream_yields_one_frame_per_line(numbers):
    numbers = sorted(numbers)
    payload = "".join(
        json.dumps({"frame": n, "timestamp": float(i), "width": 10, "height": 10, "objects": []}) + "\n"
        for i, n in enumerate(numbers)
    )
    frames = list(read_stream(io.StringIO(payload)))
    assert [f.frame_number for f in frames] == numbers


BIG = str(10**400)
HOSTILE_VALUES = ["null", '"x"', "true", "[]", "{}", "NaN", "1e999", "-1", BIG, "-" + BIG]
FRAME_FIELDS = ["frame", "timestamp", "width", "height"]
OBJECT_FIELDS = ["id", "class", "prob"]
CORNERS = ["xmin", "ymin", "xmax", "ymax"]


def _record_line(texts):
    """A two-object record with the JSON text ``texts[name]`` in each field
    ``name`` it names: a frame field, or a field or bbox corner of object 2."""
    obj = {"id": 2, "class": "car", "prob": 0.5, "bbox": [10, 20, 30, 40]}
    record = {"frame": 3, "timestamp": 0.3, "width": 100, "height": 100,
              "objects": [{"id": 1, "class": "bus", "prob": 0.9, "bbox": [0, 0, 5, 5]}, obj]}
    for name in texts:
        hole = f"HOLE-{name}"
        if name in CORNERS:
            obj["bbox"][CORNERS.index(name)] = hole
        elif name in OBJECT_FIELDS:
            obj[name] = hole
        else:
            record[name] = hole
    line = json.dumps(record)
    for name, text in texts.items():
        line = line.replace(json.dumps(f"HOLE-{name}"), text)
    return line


# The error class and message of every (field, hostile value) pair, or None
# where the record is accepted. Recorded from the field-by-field validator
# before it gained an inline path for valid values; the validator must word
# every rejection exactly so.
HOSTILE_OUTCOMES = {
    # frame
    ("frame", "null"): (InvalidField, "invalid field 'frame': expected a natural number, got None"),
    ("frame", '"x"'): (InvalidField, "invalid field 'frame': expected a natural number, got 'x'"),
    ("frame", "true"): (InvalidField, "invalid field 'frame': expected a natural number, got True"),
    ("frame", "[]"): (InvalidField, "invalid field 'frame': expected a natural number, got []"),
    ("frame", "{}"): (InvalidField, "invalid field 'frame': expected a natural number, got {}"),
    ("frame", "NaN"): (InvalidField, "invalid field 'frame': expected a natural number, got nan"),
    ("frame", "1e999"): (InvalidField, "invalid field 'frame': expected a natural number, got inf"),
    ("frame", "-1"): (InvalidField, "invalid field 'frame': frame number must be non-negative"),
    ("frame", BIG): None,
    ("frame", "-" + BIG): (InvalidField, "invalid field 'frame': frame number must be non-negative"),
    # timestamp
    ("timestamp", "null"): (InvalidField, "invalid field 'timestamp': expected a number, got None"),
    ("timestamp", '"x"'): (InvalidField, "invalid field 'timestamp': expected a number, got 'x'"),
    ("timestamp", "true"): (InvalidField, "invalid field 'timestamp': expected a number, got True"),
    ("timestamp", "[]"): (InvalidField, "invalid field 'timestamp': expected a number, got []"),
    ("timestamp", "{}"): (InvalidField, "invalid field 'timestamp': expected a number, got {}"),
    ("timestamp", "NaN"): (InvalidField, "invalid field 'timestamp': must be finite"),
    ("timestamp", "1e999"): (InvalidField, "invalid field 'timestamp': must be finite"),
    ("timestamp", "-1"): None,
    ("timestamp", BIG): (InvalidField, "invalid field 'timestamp': must be finite"),
    ("timestamp", "-" + BIG): (InvalidField, "invalid field 'timestamp': must be finite"),
    # width
    ("width", "null"): (InvalidField, "invalid field 'width': expected a number, got None"),
    ("width", '"x"'): (InvalidField, "invalid field 'width': expected a number, got 'x'"),
    ("width", "true"): (InvalidField, "invalid field 'width': expected a number, got True"),
    ("width", "[]"): (InvalidField, "invalid field 'width': expected a number, got []"),
    ("width", "{}"): (InvalidField, "invalid field 'width': expected a number, got {}"),
    ("width", "NaN"): (InvalidField, "invalid field 'width': must be finite"),
    ("width", "1e999"): (InvalidField, "invalid field 'width': must be finite"),
    ("width", "-1"): (InvalidField, "invalid field 'width': image extent must be positive"),
    ("width", BIG): (InvalidField, "invalid field 'width': must be finite"),
    ("width", "-" + BIG): (InvalidField, "invalid field 'width': image extent must be positive"),
    # height
    ("height", "null"): (InvalidField, "invalid field 'height': expected a number, got None"),
    ("height", '"x"'): (InvalidField, "invalid field 'height': expected a number, got 'x'"),
    ("height", "true"): (InvalidField, "invalid field 'height': expected a number, got True"),
    ("height", "[]"): (InvalidField, "invalid field 'height': expected a number, got []"),
    ("height", "{}"): (InvalidField, "invalid field 'height': expected a number, got {}"),
    ("height", "NaN"): (InvalidField, "invalid field 'height': must be finite"),
    ("height", "1e999"): (InvalidField, "invalid field 'height': must be finite"),
    ("height", "-1"): (InvalidField, "invalid field 'height': image extent must be positive"),
    ("height", BIG): (InvalidField, "invalid field 'height': must be finite"),
    ("height", "-" + BIG): (InvalidField, "invalid field 'height': image extent must be positive"),
    # id
    ("id", "null"): (InvalidField, "invalid field 'id': expected a natural number, got None"),
    ("id", '"x"'): (InvalidField, "invalid field 'id': expected a natural number, got 'x'"),
    ("id", "true"): (InvalidField, "invalid field 'id': expected a natural number, got True"),
    ("id", "[]"): (InvalidField, "invalid field 'id': expected a natural number, got []"),
    ("id", "{}"): (InvalidField, "invalid field 'id': expected a natural number, got {}"),
    ("id", "NaN"): (InvalidField, "invalid field 'id': expected a natural number, got nan"),
    ("id", "1e999"): (InvalidField, "invalid field 'id': expected a natural number, got inf"),
    ("id", "-1"): (InvalidField, "invalid field 'id': object id must be non-negative, got -1"),
    ("id", BIG): None,
    ("id", "-" + BIG): (InvalidField, "invalid field 'id': object id must be non-negative, got -" + BIG),
    # class
    ("class", "null"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", '"x"'): None,
    ("class", "true"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "[]"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "{}"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "NaN"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "1e999"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "-1"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", BIG): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "-" + BIG): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    # prob
    ("prob", "null"): (InvalidField, "invalid field 'prob': expected a number, got None"),
    ("prob", '"x"'): (InvalidField, "invalid field 'prob': expected a number, got 'x'"),
    ("prob", "true"): (InvalidField, "invalid field 'prob': expected a number, got True"),
    ("prob", "[]"): (InvalidField, "invalid field 'prob': expected a number, got []"),
    ("prob", "{}"): (InvalidField, "invalid field 'prob': expected a number, got {}"),
    ("prob", "NaN"): (ConfidenceOutOfRange, "confidence nan is outside [0, 1]"),
    ("prob", "1e999"): (ConfidenceOutOfRange, "confidence inf is outside [0, 1]"),
    ("prob", "-1"): (ConfidenceOutOfRange, "confidence -1.0 is outside [0, 1]"),
    ("prob", BIG): (ConfidenceOutOfRange, "confidence inf is outside [0, 1]"),
    ("prob", "-" + BIG): (ConfidenceOutOfRange, "confidence -inf is outside [0, 1]"),
    # xmin
    ("xmin", "null"): (InvalidField, "invalid field 'xmin': expected a number, got None"),
    ("xmin", '"x"'): (InvalidField, "invalid field 'xmin': expected a number, got 'x'"),
    ("xmin", "true"): (InvalidField, "invalid field 'xmin': expected a number, got True"),
    ("xmin", "[]"): (InvalidField, "invalid field 'xmin': expected a number, got []"),
    ("xmin", "{}"): (InvalidField, "invalid field 'xmin': expected a number, got {}"),
    ("xmin", "NaN"): (InvalidField, "invalid field 'xmin': coordinate must be finite"),
    ("xmin", "1e999"): (InvalidField, "invalid field 'xmin': coordinate must be finite"),
    ("xmin", "-1"): None,
    ("xmin", BIG): (InvalidField, "invalid field 'xmin': coordinate must be finite"),
    ("xmin", "-" + BIG): (InvalidField, "invalid field 'xmin': coordinate must be finite"),
    # ymin
    ("ymin", "null"): (InvalidField, "invalid field 'ymin': expected a number, got None"),
    ("ymin", '"x"'): (InvalidField, "invalid field 'ymin': expected a number, got 'x'"),
    ("ymin", "true"): (InvalidField, "invalid field 'ymin': expected a number, got True"),
    ("ymin", "[]"): (InvalidField, "invalid field 'ymin': expected a number, got []"),
    ("ymin", "{}"): (InvalidField, "invalid field 'ymin': expected a number, got {}"),
    ("ymin", "NaN"): (InvalidField, "invalid field 'ymin': coordinate must be finite"),
    ("ymin", "1e999"): (InvalidField, "invalid field 'ymin': coordinate must be finite"),
    ("ymin", "-1"): None,
    ("ymin", BIG): (InvalidField, "invalid field 'ymin': coordinate must be finite"),
    ("ymin", "-" + BIG): (InvalidField, "invalid field 'ymin': coordinate must be finite"),
    # xmax
    ("xmax", "null"): (InvalidField, "invalid field 'xmax': expected a number, got None"),
    ("xmax", '"x"'): (InvalidField, "invalid field 'xmax': expected a number, got 'x'"),
    ("xmax", "true"): (InvalidField, "invalid field 'xmax': expected a number, got True"),
    ("xmax", "[]"): (InvalidField, "invalid field 'xmax': expected a number, got []"),
    ("xmax", "{}"): (InvalidField, "invalid field 'xmax': expected a number, got {}"),
    ("xmax", "NaN"): (InvalidField, "invalid field 'xmax': coordinate must be finite"),
    ("xmax", "1e999"): (InvalidField, "invalid field 'xmax': coordinate must be finite"),
    ("xmax", "-1"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, -1.0, 40.0]"),
    ("xmax", BIG): (InvalidField, "invalid field 'xmax': coordinate must be finite"),
    ("xmax", "-" + BIG): (InvalidField, "invalid field 'xmax': coordinate must be finite"),
    # ymax
    ("ymax", "null"): (InvalidField, "invalid field 'ymax': expected a number, got None"),
    ("ymax", '"x"'): (InvalidField, "invalid field 'ymax': expected a number, got 'x'"),
    ("ymax", "true"): (InvalidField, "invalid field 'ymax': expected a number, got True"),
    ("ymax", "[]"): (InvalidField, "invalid field 'ymax': expected a number, got []"),
    ("ymax", "{}"): (InvalidField, "invalid field 'ymax': expected a number, got {}"),
    ("ymax", "NaN"): (InvalidField, "invalid field 'ymax': coordinate must be finite"),
    ("ymax", "1e999"): (InvalidField, "invalid field 'ymax': coordinate must be finite"),
    ("ymax", "-1"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 30.0, -1.0]"),
    ("ymax", BIG): (InvalidField, "invalid field 'ymax': coordinate must be finite"),
    ("ymax", "-" + BIG): (InvalidField, "invalid field 'ymax': coordinate must be finite"),
}


def test_hostile_field_value_is_a_frame_or_an_ingest_error():
    # Each hostile value in each field of object 2 (or of the frame) is an
    # accepted frame that survives a serialize/parse round trip, or an
    # ingest error with the class and message the table pins.
    for name in FRAME_FIELDS + OBJECT_FIELDS + CORNERS:
        for value in HOSTILE_VALUES:
            line = _record_line({name: value})
            expected = HOSTILE_OUTCOMES[name, value]
            if expected is None:
                frame = parse_frame(line)
                assert parse_frame(serialize_frame(frame)) == frame, (name, value)
                continue
            with pytest.raises(IngestError) as info:
                parse_frame(line)
            assert (type(info.value), str(info.value)) == expected, (name, value)


def _outcome(line):
    try:
        return parse_frame(line)
    except IngestError as exc:
        return type(exc), str(exc)


# Values on both sides of every field rule: type, sign, the [0, 1] of prob,
# the box order of 10 <= x <= 30, 20 <= y <= 40, finiteness, the float range,
# an empty label and the other object's id 1.
EDGE_TEXTS = [json.dumps(v) for v in [
    -1, 0, 1, 2, 35, -0.0, 0.5, 1.0, 1.5, 15.5, 1e-300, 1e308, 10**400, -(10**400),
    math.inf, -math.inf, math.nan, "car", "", True, None, [],
]]


# The outcome of every (field, edge value) pair: the error class and message,
# or, where the record is accepted, the value the field reads back as (a box
# corner after clipping).
EDGE_OUTCOMES = {
    # frame
    ("frame", "-1"): (InvalidField, "invalid field 'frame': frame number must be non-negative"),
    ("frame", "0"): 0,
    ("frame", "1"): 1,
    ("frame", "2"): 2,
    ("frame", "35"): 35,
    ("frame", "-0.0"): (InvalidField, "invalid field 'frame': expected a natural number, got -0.0"),
    ("frame", "0.5"): (InvalidField, "invalid field 'frame': expected a natural number, got 0.5"),
    ("frame", "1.0"): (InvalidField, "invalid field 'frame': expected a natural number, got 1.0"),
    ("frame", "1.5"): (InvalidField, "invalid field 'frame': expected a natural number, got 1.5"),
    ("frame", "15.5"): (InvalidField, "invalid field 'frame': expected a natural number, got 15.5"),
    ("frame", "1e-300"): (InvalidField, "invalid field 'frame': expected a natural number, got 1e-300"),
    ("frame", "1e+308"): (InvalidField, "invalid field 'frame': expected a natural number, got 1e+308"),
    ("frame", BIG): 10**400,
    ("frame", "-" + BIG): (InvalidField, "invalid field 'frame': frame number must be non-negative"),
    ("frame", "Infinity"): (InvalidField, "invalid field 'frame': expected a natural number, got inf"),
    ("frame", "-Infinity"): (InvalidField, "invalid field 'frame': expected a natural number, got -inf"),
    ("frame", "NaN"): (InvalidField, "invalid field 'frame': expected a natural number, got nan"),
    ("frame", '"car"'): (InvalidField, "invalid field 'frame': expected a natural number, got 'car'"),
    ("frame", '""'): (InvalidField, "invalid field 'frame': expected a natural number, got ''"),
    ("frame", "true"): (InvalidField, "invalid field 'frame': expected a natural number, got True"),
    ("frame", "null"): (InvalidField, "invalid field 'frame': expected a natural number, got None"),
    ("frame", "[]"): (InvalidField, "invalid field 'frame': expected a natural number, got []"),
    # timestamp
    ("timestamp", "-1"): -1.0,
    ("timestamp", "0"): 0.0,
    ("timestamp", "1"): 1.0,
    ("timestamp", "2"): 2.0,
    ("timestamp", "35"): 35.0,
    ("timestamp", "-0.0"): -0.0,
    ("timestamp", "0.5"): 0.5,
    ("timestamp", "1.0"): 1.0,
    ("timestamp", "1.5"): 1.5,
    ("timestamp", "15.5"): 15.5,
    ("timestamp", "1e-300"): 1e-300,
    ("timestamp", "1e+308"): 1e+308,
    ("timestamp", BIG): (InvalidField, "invalid field 'timestamp': must be finite"),
    ("timestamp", "-" + BIG): (InvalidField, "invalid field 'timestamp': must be finite"),
    ("timestamp", "Infinity"): (InvalidField, "invalid field 'timestamp': must be finite"),
    ("timestamp", "-Infinity"): (InvalidField, "invalid field 'timestamp': must be finite"),
    ("timestamp", "NaN"): (InvalidField, "invalid field 'timestamp': must be finite"),
    ("timestamp", '"car"'): (InvalidField, "invalid field 'timestamp': expected a number, got 'car'"),
    ("timestamp", '""'): (InvalidField, "invalid field 'timestamp': expected a number, got ''"),
    ("timestamp", "true"): (InvalidField, "invalid field 'timestamp': expected a number, got True"),
    ("timestamp", "null"): (InvalidField, "invalid field 'timestamp': expected a number, got None"),
    ("timestamp", "[]"): (InvalidField, "invalid field 'timestamp': expected a number, got []"),
    # width
    ("width", "-1"): (InvalidField, "invalid field 'width': image extent must be positive"),
    ("width", "0"): (InvalidField, "invalid field 'width': image extent must be positive"),
    ("width", "1"): 1.0,
    ("width", "2"): 2.0,
    ("width", "35"): 35.0,
    ("width", "-0.0"): (InvalidField, "invalid field 'width': image extent must be positive"),
    ("width", "0.5"): 0.5,
    ("width", "1.0"): 1.0,
    ("width", "1.5"): 1.5,
    ("width", "15.5"): 15.5,
    ("width", "1e-300"): 1e-300,
    ("width", "1e+308"): 1e+308,
    ("width", BIG): (InvalidField, "invalid field 'width': must be finite"),
    ("width", "-" + BIG): (InvalidField, "invalid field 'width': image extent must be positive"),
    ("width", "Infinity"): (InvalidField, "invalid field 'width': must be finite"),
    ("width", "-Infinity"): (InvalidField, "invalid field 'width': image extent must be positive"),
    ("width", "NaN"): (InvalidField, "invalid field 'width': must be finite"),
    ("width", '"car"'): (InvalidField, "invalid field 'width': expected a number, got 'car'"),
    ("width", '""'): (InvalidField, "invalid field 'width': expected a number, got ''"),
    ("width", "true"): (InvalidField, "invalid field 'width': expected a number, got True"),
    ("width", "null"): (InvalidField, "invalid field 'width': expected a number, got None"),
    ("width", "[]"): (InvalidField, "invalid field 'width': expected a number, got []"),
    # height
    ("height", "-1"): (InvalidField, "invalid field 'height': image extent must be positive"),
    ("height", "0"): (InvalidField, "invalid field 'height': image extent must be positive"),
    ("height", "1"): 1.0,
    ("height", "2"): 2.0,
    ("height", "35"): 35.0,
    ("height", "-0.0"): (InvalidField, "invalid field 'height': image extent must be positive"),
    ("height", "0.5"): 0.5,
    ("height", "1.0"): 1.0,
    ("height", "1.5"): 1.5,
    ("height", "15.5"): 15.5,
    ("height", "1e-300"): 1e-300,
    ("height", "1e+308"): 1e+308,
    ("height", BIG): (InvalidField, "invalid field 'height': must be finite"),
    ("height", "-" + BIG): (InvalidField, "invalid field 'height': image extent must be positive"),
    ("height", "Infinity"): (InvalidField, "invalid field 'height': must be finite"),
    ("height", "-Infinity"): (InvalidField, "invalid field 'height': image extent must be positive"),
    ("height", "NaN"): (InvalidField, "invalid field 'height': must be finite"),
    ("height", '"car"'): (InvalidField, "invalid field 'height': expected a number, got 'car'"),
    ("height", '""'): (InvalidField, "invalid field 'height': expected a number, got ''"),
    ("height", "true"): (InvalidField, "invalid field 'height': expected a number, got True"),
    ("height", "null"): (InvalidField, "invalid field 'height': expected a number, got None"),
    ("height", "[]"): (InvalidField, "invalid field 'height': expected a number, got []"),
    # id
    ("id", "-1"): (InvalidField, "invalid field 'id': object id must be non-negative, got -1"),
    ("id", "0"): 0,
    ("id", "1"): (DuplicateObjectId, "duplicate object id 1"),
    ("id", "2"): 2,
    ("id", "35"): 35,
    ("id", "-0.0"): (InvalidField, "invalid field 'id': expected a natural number, got -0.0"),
    ("id", "0.5"): (InvalidField, "invalid field 'id': expected a natural number, got 0.5"),
    ("id", "1.0"): (InvalidField, "invalid field 'id': expected a natural number, got 1.0"),
    ("id", "1.5"): (InvalidField, "invalid field 'id': expected a natural number, got 1.5"),
    ("id", "15.5"): (InvalidField, "invalid field 'id': expected a natural number, got 15.5"),
    ("id", "1e-300"): (InvalidField, "invalid field 'id': expected a natural number, got 1e-300"),
    ("id", "1e+308"): (InvalidField, "invalid field 'id': expected a natural number, got 1e+308"),
    ("id", BIG): 10**400,
    ("id", "-" + BIG): (InvalidField, "invalid field 'id': object id must be non-negative, got -" + BIG),
    ("id", "Infinity"): (InvalidField, "invalid field 'id': expected a natural number, got inf"),
    ("id", "-Infinity"): (InvalidField, "invalid field 'id': expected a natural number, got -inf"),
    ("id", "NaN"): (InvalidField, "invalid field 'id': expected a natural number, got nan"),
    ("id", '"car"'): (InvalidField, "invalid field 'id': expected a natural number, got 'car'"),
    ("id", '""'): (InvalidField, "invalid field 'id': expected a natural number, got ''"),
    ("id", "true"): (InvalidField, "invalid field 'id': expected a natural number, got True"),
    ("id", "null"): (InvalidField, "invalid field 'id': expected a natural number, got None"),
    ("id", "[]"): (InvalidField, "invalid field 'id': expected a natural number, got []"),
    # class
    ("class", "-1"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "0"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "1"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "2"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "35"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "-0.0"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "0.5"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "1.0"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "1.5"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "15.5"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "1e-300"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "1e+308"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", BIG): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "-" + BIG): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "Infinity"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "-Infinity"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "NaN"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", '"car"'): "car",
    ("class", '""'): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "true"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "null"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    ("class", "[]"): (InvalidField, "invalid field 'class': class label must be a non-empty string"),
    # prob
    ("prob", "-1"): (ConfidenceOutOfRange, "confidence -1.0 is outside [0, 1]"),
    ("prob", "0"): 0.0,
    ("prob", "1"): 1.0,
    ("prob", "2"): (ConfidenceOutOfRange, "confidence 2.0 is outside [0, 1]"),
    ("prob", "35"): (ConfidenceOutOfRange, "confidence 35.0 is outside [0, 1]"),
    ("prob", "-0.0"): -0.0,
    ("prob", "0.5"): 0.5,
    ("prob", "1.0"): 1.0,
    ("prob", "1.5"): (ConfidenceOutOfRange, "confidence 1.5 is outside [0, 1]"),
    ("prob", "15.5"): (ConfidenceOutOfRange, "confidence 15.5 is outside [0, 1]"),
    ("prob", "1e-300"): 1e-300,
    ("prob", "1e+308"): (ConfidenceOutOfRange, "confidence 1e+308 is outside [0, 1]"),
    ("prob", BIG): (ConfidenceOutOfRange, "confidence inf is outside [0, 1]"),
    ("prob", "-" + BIG): (ConfidenceOutOfRange, "confidence -inf is outside [0, 1]"),
    ("prob", "Infinity"): (ConfidenceOutOfRange, "confidence inf is outside [0, 1]"),
    ("prob", "-Infinity"): (ConfidenceOutOfRange, "confidence -inf is outside [0, 1]"),
    ("prob", "NaN"): (ConfidenceOutOfRange, "confidence nan is outside [0, 1]"),
    ("prob", '"car"'): (InvalidField, "invalid field 'prob': expected a number, got 'car'"),
    ("prob", '""'): (InvalidField, "invalid field 'prob': expected a number, got ''"),
    ("prob", "true"): (InvalidField, "invalid field 'prob': expected a number, got True"),
    ("prob", "null"): (InvalidField, "invalid field 'prob': expected a number, got None"),
    ("prob", "[]"): (InvalidField, "invalid field 'prob': expected a number, got []"),
    # xmin
    ("xmin", "-1"): 0.0,
    ("xmin", "0"): 0.0,
    ("xmin", "1"): 1.0,
    ("xmin", "2"): 2.0,
    ("xmin", "35"): (InvalidField, "invalid field 'bbox': inverted box [35.0, 20.0, 30.0, 40.0]"),
    ("xmin", "-0.0"): -0.0,
    ("xmin", "0.5"): 0.5,
    ("xmin", "1.0"): 1.0,
    ("xmin", "1.5"): 1.5,
    ("xmin", "15.5"): 15.5,
    ("xmin", "1e-300"): 1e-300,
    ("xmin", "1e+308"): (InvalidField, "invalid field 'bbox': inverted box [1e+308, 20.0, 30.0, 40.0]"),
    ("xmin", BIG): (InvalidField, "invalid field 'xmin': coordinate must be finite"),
    ("xmin", "-" + BIG): (InvalidField, "invalid field 'xmin': coordinate must be finite"),
    ("xmin", "Infinity"): (InvalidField, "invalid field 'xmin': coordinate must be finite"),
    ("xmin", "-Infinity"): (InvalidField, "invalid field 'xmin': coordinate must be finite"),
    ("xmin", "NaN"): (InvalidField, "invalid field 'xmin': coordinate must be finite"),
    ("xmin", '"car"'): (InvalidField, "invalid field 'xmin': expected a number, got 'car'"),
    ("xmin", '""'): (InvalidField, "invalid field 'xmin': expected a number, got ''"),
    ("xmin", "true"): (InvalidField, "invalid field 'xmin': expected a number, got True"),
    ("xmin", "null"): (InvalidField, "invalid field 'xmin': expected a number, got None"),
    ("xmin", "[]"): (InvalidField, "invalid field 'xmin': expected a number, got []"),
    # ymin
    ("ymin", "-1"): 0.0,
    ("ymin", "0"): 0.0,
    ("ymin", "1"): 1.0,
    ("ymin", "2"): 2.0,
    ("ymin", "35"): 35.0,
    ("ymin", "-0.0"): -0.0,
    ("ymin", "0.5"): 0.5,
    ("ymin", "1.0"): 1.0,
    ("ymin", "1.5"): 1.5,
    ("ymin", "15.5"): 15.5,
    ("ymin", "1e-300"): 1e-300,
    ("ymin", "1e+308"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 1e+308, 30.0, 40.0]"),
    ("ymin", BIG): (InvalidField, "invalid field 'ymin': coordinate must be finite"),
    ("ymin", "-" + BIG): (InvalidField, "invalid field 'ymin': coordinate must be finite"),
    ("ymin", "Infinity"): (InvalidField, "invalid field 'ymin': coordinate must be finite"),
    ("ymin", "-Infinity"): (InvalidField, "invalid field 'ymin': coordinate must be finite"),
    ("ymin", "NaN"): (InvalidField, "invalid field 'ymin': coordinate must be finite"),
    ("ymin", '"car"'): (InvalidField, "invalid field 'ymin': expected a number, got 'car'"),
    ("ymin", '""'): (InvalidField, "invalid field 'ymin': expected a number, got ''"),
    ("ymin", "true"): (InvalidField, "invalid field 'ymin': expected a number, got True"),
    ("ymin", "null"): (InvalidField, "invalid field 'ymin': expected a number, got None"),
    ("ymin", "[]"): (InvalidField, "invalid field 'ymin': expected a number, got []"),
    # xmax
    ("xmax", "-1"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, -1.0, 40.0]"),
    ("xmax", "0"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 0.0, 40.0]"),
    ("xmax", "1"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 1.0, 40.0]"),
    ("xmax", "2"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 2.0, 40.0]"),
    ("xmax", "35"): 35.0,
    ("xmax", "-0.0"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, -0.0, 40.0]"),
    ("xmax", "0.5"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 0.5, 40.0]"),
    ("xmax", "1.0"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 1.0, 40.0]"),
    ("xmax", "1.5"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 1.5, 40.0]"),
    ("xmax", "15.5"): 15.5,
    ("xmax", "1e-300"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 1e-300, 40.0]"),
    ("xmax", "1e+308"): 100.0,
    ("xmax", BIG): (InvalidField, "invalid field 'xmax': coordinate must be finite"),
    ("xmax", "-" + BIG): (InvalidField, "invalid field 'xmax': coordinate must be finite"),
    ("xmax", "Infinity"): (InvalidField, "invalid field 'xmax': coordinate must be finite"),
    ("xmax", "-Infinity"): (InvalidField, "invalid field 'xmax': coordinate must be finite"),
    ("xmax", "NaN"): (InvalidField, "invalid field 'xmax': coordinate must be finite"),
    ("xmax", '"car"'): (InvalidField, "invalid field 'xmax': expected a number, got 'car'"),
    ("xmax", '""'): (InvalidField, "invalid field 'xmax': expected a number, got ''"),
    ("xmax", "true"): (InvalidField, "invalid field 'xmax': expected a number, got True"),
    ("xmax", "null"): (InvalidField, "invalid field 'xmax': expected a number, got None"),
    ("xmax", "[]"): (InvalidField, "invalid field 'xmax': expected a number, got []"),
    # ymax
    ("ymax", "-1"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 30.0, -1.0]"),
    ("ymax", "0"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 30.0, 0.0]"),
    ("ymax", "1"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 30.0, 1.0]"),
    ("ymax", "2"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 30.0, 2.0]"),
    ("ymax", "35"): 35.0,
    ("ymax", "-0.0"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 30.0, -0.0]"),
    ("ymax", "0.5"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 30.0, 0.5]"),
    ("ymax", "1.0"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 30.0, 1.0]"),
    ("ymax", "1.5"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 30.0, 1.5]"),
    ("ymax", "15.5"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 30.0, 15.5]"),
    ("ymax", "1e-300"): (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, 30.0, 1e-300]"),
    ("ymax", "1e+308"): 100.0,
    ("ymax", BIG): (InvalidField, "invalid field 'ymax': coordinate must be finite"),
    ("ymax", "-" + BIG): (InvalidField, "invalid field 'ymax': coordinate must be finite"),
    ("ymax", "Infinity"): (InvalidField, "invalid field 'ymax': coordinate must be finite"),
    ("ymax", "-Infinity"): (InvalidField, "invalid field 'ymax': coordinate must be finite"),
    ("ymax", "NaN"): (InvalidField, "invalid field 'ymax': coordinate must be finite"),
    ("ymax", '"car"'): (InvalidField, "invalid field 'ymax': expected a number, got 'car'"),
    ("ymax", '""'): (InvalidField, "invalid field 'ymax': expected a number, got ''"),
    ("ymax", "true"): (InvalidField, "invalid field 'ymax': expected a number, got True"),
    ("ymax", "null"): (InvalidField, "invalid field 'ymax': expected a number, got None"),
    ("ymax", "[]"): (InvalidField, "invalid field 'ymax': expected a number, got []"),
}


def _field(frame, name):
    """Field ``name`` of ``frame``: a frame field, or a field or bbox corner
    of the object that is not object 1."""
    attr = {"frame": "frame_number", "id": "object_id", "class": "class_label",
            "prob": "confidence"}.get(name, name)
    if name in FRAME_FIELDS:
        return getattr(frame, attr)
    obj = next(o for o in frame.objects.values() if o.object_id != 1)
    return getattr(obj.bbox if name in CORNERS else obj, attr)


def test_edge_value_outcomes_are_pinned():
    for name in FRAME_FIELDS + OBJECT_FIELDS + CORNERS:
        for value in EDGE_TEXTS:
            outcome = _outcome(_record_line({name: value}))
            if isinstance(outcome, Frame):
                assert parse_frame(serialize_frame(outcome)) == outcome, (name, value)
                outcome = _field(outcome, name)
            # The repr tells 1 from 1.0 and 0.0 from -0.0.
            assert repr(outcome) == repr(EDGE_OUTCOMES[name, value]), (name, value)


# Records with two bad fields: the error names the first in wording order
# (frame, timestamp, width, height, extent, then per object the box corners,
# an inverted box, id, class, prob, a duplicate id).
MULTI_FAULT_OUTCOMES = [
    ({"ymin": "Infinity", "ymax": "{}"},
     (InvalidField, "invalid field 'ymin': coordinate must be finite")),
    ({"xmin": "1e999", "ymin": '"x"'},
     (InvalidField, "invalid field 'xmin': coordinate must be finite")),
    ({"xmin": '"x"', "ymin": BIG},
     (InvalidField, "invalid field 'xmin': expected a number, got 'x'")),
    ({"ymin": "NaN", "xmax": '"x"'},
     (InvalidField, "invalid field 'ymin': coordinate must be finite")),
    ({"xmax": "5", "ymax": "NaN"},
     (InvalidField, "invalid field 'ymax': coordinate must be finite")),
    ({"width": "-1", "height": '"x"'},
     (InvalidField, "invalid field 'height': expected a number, got 'x'")),
    ({"width": BIG, "height": "-1"},
     (InvalidField, "invalid field 'height': image extent must be positive")),
    ({"timestamp": "NaN", "width": '"x"'},
     (InvalidField, "invalid field 'timestamp': must be finite")),
    ({"frame": "-1", "timestamp": "null"},
     (InvalidField, "invalid field 'frame': frame number must be non-negative")),
    ({"height": "NaN", "xmin": "NaN"},
     (InvalidField, "invalid field 'height': must be finite")),
    ({"xmax": "-1", "id": '"x"'},
     (InvalidField, "invalid field 'bbox': inverted box [10.0, 20.0, -1.0, 40.0]")),
    ({"id": '"x"', "prob": "NaN"},
     (InvalidField, "invalid field 'id': expected a natural number, got 'x'")),
    ({"class": '""', "prob": "2"},
     (InvalidField, "invalid field 'class': class label must be a non-empty string")),
    ({"id": "1", "prob": "2"}, (ConfidenceOutOfRange, "confidence 2.0 is outside [0, 1]")),
]


@pytest.mark.parametrize("texts, expected", MULTI_FAULT_OUTCOMES)
def test_first_bad_field_in_wording_order_is_reported(texts, expected):
    assert _outcome(_record_line(texts)) == expected


def test_make_frame_reads_number_subclasses_as_plain_floats():
    f64 = np.float64
    box = BoundingBox(f64(-1), f64(2), f64(3.5), f64(4))
    frame = make_frame(3, f64(0.5), f64(100), 80, [DetectedObject(7, "car", f64(0.25), box)])
    plain = DetectedObject(7, "car", 0.25, BoundingBox(0.0, 2.0, 3.5, 4.0))
    # A numpy float's repr names its type, so equal reprs mean plain floats.
    assert repr(frame) == repr(Frame(3, 0.5, 100.0, 80.0, {7: plain}))
    with pytest.raises(InvalidField) as info:
        make_frame(3, 0.5, 100, 80, [DetectedObject(7, "car", True, box)])
    assert str(info.value) == "invalid field 'prob': expected a number, got True"
    with pytest.raises(InvalidField) as info:
        make_frame(3, 0.5, 100, 80, [DetectedObject(np.int64(7), "car", 0.25, box)])
    assert str(info.value) == f"invalid field 'id': expected a natural number, got {np.int64(7)!r}"


def _dataclass_twin(cls):
    """A frozen dataclass with ``cls``'s fields, built the standard way."""
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)], frozen=True)


BOX = BoundingBox(1.0, 2.0, 3.0, 4.0)
RECORD_VALUES = [
    pytest.param(cls, values, other, id=cls.__name__) for cls, values, other in [
        (BoundingBox, (1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 4.5)),
        (DetectedObject, (7, "car", 0.5, BOX), (7, "car", 0.5, BoundingBox(1.0, 2.0, 3.0, 5.0))),
        (Frame, (3, 0.3, 100.0, 80.0, {7: DetectedObject(7, "car", 0.5, BOX)}),
         (3, 0.3, 100.0, 80.0, {})),
        (Universe, (100.0, 80.0), (100.0, 81.0)),
        (Verdict, (3, 0.3, True, 1200), (3, 0.3, False, 1200)),
    ]
]


@pytest.mark.parametrize("cls, values, other", RECORD_VALUES)
def test_records_are_immutable_values_like_a_frozen_dataclass(cls, values, other):
    record, twin = cls(*values), _dataclass_twin(cls)(*values)
    assert record == cls(*values) and record is not cls(*values)
    assert record != cls(*other)
    assert repr(record) == repr(twin)
    assert [getattr(record, f.name) for f in dataclasses.fields(cls)] == list(values)
    assert cls(**{f.name: v for f, v in zip(dataclasses.fields(cls), values)}) == record
    try:
        assert hash(record) == hash(twin) == hash(cls(*values))
    except TypeError:
        # A frame's object map is a dict, so a frame hashes as its twin does: not at all.
        with pytest.raises(TypeError):
            hash(twin)
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, f.name)
    assert not hasattr(record, "__dict__")


def test_frame_objects_default_to_a_fresh_empty_map():
    first, second = Frame(0, 0.0, 1.0, 1.0), Frame(0, 0.0, 1.0, 1.0)
    assert first.objects == {} and first.objects is not second.objects


# A valid 2-object record, and each value that replaces one of its fields in turn.
SHARED_RECORD = {
    "frame": 3, "timestamp": 0.5, "width": 100, "height": 80,
    "objects": [
        {"id": 1, "class": "car", "prob": 0.9, "bbox": [10, 20, 30, 40]},
        {"id": 4, "class": "pedestrian", "prob": 0.6, "bbox": [5, 5, 50, 60]},
    ],
}
REPLACEMENTS = [True, False, None, "7", -1, math.nan, math.inf, -math.inf, 1.5, "", 10**400,
                [1], {}]


def _replaced(path, value):
    """``SHARED_RECORD`` with the field at ``path`` (keys and indices) set to ``value``."""
    record = json.loads(json.dumps(SHARED_RECORD))
    *parents, last = path
    owner = record
    for key in parents:
        owner = owner[key]
    owner[last] = value
    return record


def _built(record):
    """``make_frame`` over the record's values, as a library caller passes them."""
    objects = [DetectedObject(raw["id"], raw["class"], raw["prob"], BoundingBox(*raw["bbox"]))
               for raw in record["objects"]]
    return make_frame(record["frame"], record["timestamp"], record["width"], record["height"],
                      objects)


def _either(build, arg):
    try:
        return repr(build(arg))
    except IngestError as exc:
        return type(exc), str(exc)


def test_parse_frame_and_make_frame_share_one_validator():
    # Every field of the record, set to each value: the built frame and the
    # parsed record give the same frame or the same error, word for word.
    paths = [(name,) for name in ("frame", "timestamp", "width", "height")]
    paths += [("objects", i, name) for i in (0, 1) for name in ("id", "class", "prob")]
    paths += [("objects", i, "bbox", corner) for i in (0, 1) for corner in range(4)]
    outcomes = []
    for path in paths:
        for value in REPLACEMENTS:
            record = _replaced(path, value)
            parsed = _either(parse_frame, json.dumps(record))
            assert _either(_built, record) == parsed, (path, value)
            outcomes.append(parsed)
    # 18 fields times 13 values, of which all but 17 are rejected.
    assert (len(outcomes), sum(isinstance(o, tuple) for o in outcomes)) == (234, 217)
