import io
import json
import math

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
from percemon.trace import (
    BoundingBox,
    DetectedObject,
    Frame,
    make_frame,
    parse_frame,
    read_stream,
    serialize_frame,
)


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


HOSTILE_VALUES = ["null", '"x"', "true", "[]", "{}", "NaN", "1e999", "-1",
                  str(10**400), str(-10**400)]
FRAME_FIELDS = ["frame", "timestamp", "width", "height"]
OBJECT_FIELDS = ["id", "class", "prob"]
CORNERS = ["xmin", "ymin", "xmax", "ymax"]


@settings(max_examples=300)
@given(st.sampled_from(FRAME_FIELDS + OBJECT_FIELDS + CORNERS), st.sampled_from(HOSTILE_VALUES))
def test_hostile_field_value_is_a_frame_or_an_ingest_error(name, value):
    obj = {"id": 2, "class": "car", "prob": 0.5, "bbox": [10, 20, 30, 40]}
    record = {"frame": 3, "timestamp": 0.3, "width": 100, "height": 100,
              "objects": [{"id": 1, "class": "bus", "prob": 0.9, "bbox": [0, 0, 5, 5]}, obj]}
    hole = "HOSTILE"
    if name in CORNERS:
        obj["bbox"][CORNERS.index(name)] = hole
    elif name in OBJECT_FIELDS:
        obj[name] = hole
    else:
        record[name] = hole
    line = json.dumps(record).replace(json.dumps(hole), value)
    try:
        frame = parse_frame(line)
    except IngestError:
        return
    assert parse_frame(serialize_frame(frame)) == frame
