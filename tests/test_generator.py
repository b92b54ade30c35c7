import pytest

from percemon.errors import ConfigError
from percemon.evaluate import evaluate_trace
from percemon.generator import (
    GenConfig,
    drop_fault_trace,
    generate_frames,
    jump_fault_trace,
    safe_zone,
    stationary_trace,
)
from percemon.stql.builtins import phi1, phi2, resolve_params
from percemon.stql.desugar import desugar
from percemon.trace import serialize_frame


def test_same_seed_is_byte_identical():
    cfg = GenConfig(frames=25, objects=4, drop_prob=0.2, jump_prob=0.1, conf_dip_prob=0.1, seed=42)
    a = "\n".join(serialize_frame(f) for f in generate_frames(cfg))
    b = "\n".join(serialize_frame(f) for f in generate_frames(cfg))
    assert a == b


def test_different_seeds_differ():
    base = GenConfig(frames=10, objects=2, seed=1)
    other = GenConfig(frames=10, objects=2, seed=2)
    assert generate_frames(base) != generate_frames(other)


def test_no_faults_means_every_object_every_frame():
    cfg = GenConfig(frames=30, objects=3, seed=5)
    for frame in generate_frames(cfg):
        assert set(frame.objects) == {1, 2, 3}


def test_generated_boxes_stay_in_safe_zone():
    cfg = GenConfig(frames=40, objects=3, jump_prob=0.2, seed=6)
    params = resolve_params()
    for frame in generate_frames(cfg):
        for obj in frame.objects.values():
            assert obj.bbox.ymin > params["c1"]
            assert obj.bbox.ymax < params["c2"]
            assert obj.bbox.xmin > params["c3"]
            assert obj.bbox.xmax < params["c4"]


def test_faultless_stream_satisfies_persistence_check():
    stream = generate_frames(GenConfig(frames=40, objects=3, seed=8))
    assert all(evaluate_trace(desugar(phi1()), stream))


def test_confidence_dips_fall_below_threshold():
    stream = generate_frames(GenConfig(frames=60, objects=2, conf_dip_prob=0.5, seed=10))
    probs = [o.confidence for f in stream for o in f.objects.values()]
    assert any(p < 0.7 for p in probs)
    assert any(p > 0.8 for p in probs)


def test_probability_validation():
    with pytest.raises(ConfigError):
        GenConfig(frames=1, objects=1, drop_prob=1.5)


@pytest.mark.parametrize("extent", [{"width": float("nan")}, {"height": float("inf")},
                                    {"width": -float("inf")}, {"height": 0.0}])
def test_extent_must_be_positive_and_finite(extent):
    with pytest.raises(ConfigError, match="image extent must be positive and finite"):
        GenConfig(frames=1, objects=1, **extent)


@pytest.mark.parametrize("extent", [{"width": 0.5}, {"height": 68.0},
                                    {"width": 60.0, "height": 60.0}])
def test_extent_must_fit_the_largest_box_inside_the_margins(extent):
    with pytest.raises(ConfigError, match="too small for 30-60 px boxes inside 5% margins"):
        GenConfig(frames=1, objects=1, **extent)


@pytest.mark.parametrize("extent", [{"width": 1e308}, {"height": 2.0 ** 53 + 2}])
def test_extent_must_keep_integer_coordinates_exact(extent):
    with pytest.raises(ConfigError, match="image extent must be at most 2\\^53"):
        GenConfig(frames=1, objects=1, **extent)


@pytest.mark.parametrize("extent", [69.0, 2.0 ** 53])
def test_extreme_accepted_extents_keep_boxes_inside_the_margins(extent):
    # The least and greatest accepted extents: every box keeps a width and
    # height of 30-60 px and lies strictly inside the 5% margins, so no
    # box is clipped and the persistence check holds throughout.
    cfg = GenConfig(frames=30, objects=3, jump_prob=0.3, seed=4, width=extent, height=extent)
    frames = generate_frames(cfg)
    params = resolve_params({"width": extent, "height": extent})
    for frame in frames:
        for obj in frame.objects.values():
            box = obj.bbox
            assert 30 <= box.xmax - box.xmin <= 60 and 30 <= box.ymax - box.ymin <= 60
            assert box.xmin > params["c3"] and box.xmax < params["c4"]
            assert box.ymin > params["c1"] and box.ymax < params["c2"]
    assert all(evaluate_trace(desugar(phi1({"width": extent, "height": extent})), frames))


@pytest.mark.parametrize("name, value, message", [
    ("width", -5.0, "parameter width must be positive, got -5"),
    ("height", 0.0, "parameter height must be positive, got 0"),
    ("prob_high", -2.0, "parameter prob_high must lie in \\[0, 1\\], got -2"),
    ("prob_low", 1.01, "parameter prob_low must lie in \\[0, 1\\], got 1.01"),
    ("overlap", 1.5, "parameter overlap must lie in \\[0, 1\\], got 1.5"),
])
def test_params_that_make_a_check_vacuous_are_rejected(name, value, message):
    with pytest.raises(ConfigError, match=message):
        resolve_params({name: value})


def test_param_range_ends_are_accepted():
    params = resolve_params({"prob_high": 1.0, "prob_low": 0.0, "overlap": 0.0, "width": 1.0})
    assert (params["prob_high"], params["prob_low"], params["overlap"]) == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_params_must_be_finite(value):
    with pytest.raises(ConfigError, match="parameter overlap must be finite"):
        resolve_params({"overlap": value})
    with pytest.raises(ConfigError, match="parameter c1 must be finite"):
        phi1({"c1": value})


def test_safe_zone_is_strictly_inside_margins():
    x_lo, x_hi, y_lo, y_hi = safe_zone(800.0, 600.0)
    assert x_lo > 0.05 * 800 and x_hi < 0.95 * 800
    assert y_lo > 0.05 * 600 and y_hi < 0.95 * 600


def test_drop_fault_trace_shape():
    trace = drop_fault_trace(frames=30, drop_at=12)
    assert len(trace) == 30
    assert [i for i, f in enumerate(trace) if not f.objects] == [12]
    verdicts = evaluate_trace(desugar(phi1()), trace)
    assert [i for i, v in enumerate(verdicts) if not v] == [13]


def test_jump_fault_trace_has_one_disjoint_teleport():
    trace = jump_fault_trace(frames=30, jump_at=14)
    boxes = [f.objects[1].bbox for f in trace]
    before, after = boxes[13], boxes[14]
    assert (before.xmax <= after.xmin or after.xmax <= before.xmin
            or before.ymax <= after.ymin or after.ymax <= before.ymin)
    verdicts = evaluate_trace(desugar(phi2()), trace)
    assert [i for i, v in enumerate(verdicts) if not v] == [14]


def test_stationary_trace_is_smooth():
    trace = stationary_trace(frames=20, objects=2)
    assert all(evaluate_trace(desugar(phi2()), trace))


def test_fault_positions_validated():
    with pytest.raises(ConfigError):
        drop_fault_trace(frames=10, drop_at=0)
    with pytest.raises(ConfigError):
        jump_fault_trace(frames=10, jump_at=10)
