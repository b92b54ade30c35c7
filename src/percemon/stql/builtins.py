"""Named built-in specifications and specification resolution.

``builtin:phi1`` (consistent detections): every object detected with high
confidence and well inside the image must already have been present, with
reasonably high confidence, in the previous frame.

``builtin:phi2`` (smooth trajectories): the box of every object in the
current frame must overlap its box from the previous frame by at least the
``overlap`` fraction.

Both carry a ``prev true`` guard in the antecedent so the first frame of a
finite stream, which has no predecessor, is not flagged. Constants come
from a parameter map; margins default to 5 percent of the frame extent.

``probe:exists1`` .. ``probe:exists3`` quantify k object variables over an
always-false body; they enumerate exactly n^k assignments on an n-object
frame and exist to measure quantifier blow-up.
"""

from __future__ import annotations

import math
import os
import re
from typing import Mapping

from ..errors import ConfigError, Diagnostic, SpecError
from . import ast as A
from .bindings import MAX_OBJECT_VARIABLES

DEFAULT_PARAMS: dict[str, float] = {
    "width": 800.0,
    "height": 600.0,
    "prob_high": 0.8,
    "prob_low": 0.7,
    "overlap": 0.3,
}


def resolve_params(params: Mapping[str, float] | None = None) -> dict[str, float]:
    """Merge user parameters over the defaults and derive missing margins.

    The image extent must be positive and the confidences and the overlap
    fraction must lie in [0, 1]; any other value makes a check vacuous."""
    merged = dict(DEFAULT_PARAMS)
    if params:
        unknown = set(params) - set(DEFAULT_PARAMS) - {"c1", "c2", "c3", "c4"}
        if unknown:
            raise ConfigError(f"unknown parameter(s): {', '.join(sorted(unknown))}")
        for name, value in params.items():
            merged[name] = float(value)
            if not math.isfinite(merged[name]):
                raise ConfigError(f"parameter {name} must be finite, got {value}")
    for name in ("width", "height"):
        if merged[name] <= 0:
            raise ConfigError(f"parameter {name} must be positive, got {merged[name]:g}")
    for name in ("prob_high", "prob_low", "overlap"):
        if not 0 <= merged[name] <= 1:
            raise ConfigError(f"parameter {name} must lie in [0, 1], got {merged[name]:g}")
    merged.setdefault("c1", 0.05 * merged["height"])
    merged.setdefault("c2", 0.95 * merged["height"])
    merged.setdefault("c3", 0.05 * merged["width"])
    merged.setdefault("c4", 0.95 * merged["width"])
    return merged


def _margins(var: str, p: Mapping[str, float]) -> A.Formula:
    """The object sits strictly inside all four margins."""
    top = A.OffsetCmpConst(A.OffsetTerm(A.Axis.LON, var, A.ReferencePoint.TM), A.Cmp.GT, p["c1"])
    bottom = A.OffsetCmpConst(A.OffsetTerm(A.Axis.LON, var, A.ReferencePoint.BM), A.Cmp.LT, p["c2"])
    left = A.OffsetCmpConst(A.OffsetTerm(A.Axis.LAT, var, A.ReferencePoint.LM), A.Cmp.GT, p["c3"])
    right = A.OffsetCmpConst(A.OffsetTerm(A.Axis.LAT, var, A.ReferencePoint.RM), A.Cmp.LT, p["c4"])
    return A.And(A.And(A.And(top, bottom), left), right)


def phi1(params: Mapping[str, float] | None = None) -> A.Formula:
    """Consistent detections: confident, centered objects persist from the previous frame."""
    p = resolve_params(params)
    high_prob = A.ProbCmpConst("id1", A.Cmp.GT, p["prob_high"])
    antecedent = A.And(A.And(A.Prev(A.TrueConst()), high_prob), _margins("id1", p))
    existed_before = A.Exists(
        ("id2",),
        A.And(A.IdEq("id1", "id2"), A.ProbCmpConst("id2", A.Cmp.GT, p["prob_low"])),
    )
    body = A.Implies(antecedent, A.Prev(existed_before))
    return A.Forall(("id1",), A.Freeze(None, "f", body))


def phi2(params: Mapping[str, float] | None = None) -> A.Formula:
    """Smooth trajectories: a track's box overlaps its previous-frame box enough."""
    p = resolve_params(params)
    overlap = A.AreaCmpRatio(
        A.SpatialIntersect(A.BBoxOf("id1"), A.BBoxOf("id2")),
        A.Cmp.GE,
        p["overlap"],
        A.BBoxOf("id1"),
    )
    same_track = A.Implies(A.IdEq("id1", "id2"), overlap)
    previous = A.Prev(A.Exists(("id2",), A.Freeze(None, "f2", same_track)))
    body = A.Implies(A.Prev(A.TrueConst()), previous)
    return A.Forall(("id1",), A.Freeze(None, "f1", body))


def probe(k: int) -> A.Formula:
    """k object variables over an always-false body: n^k assignments per frame."""
    if not 1 <= k <= MAX_OBJECT_VARIABLES:
        raise ConfigError(f"probe nesting must be between 1 and {MAX_OBJECT_VARIABLES}, got {k}")
    names = tuple(f"q{i}" for i in range(1, k + 1))
    return A.Exists(names, A.ProbCmpConst(names[0], A.Cmp.GT, 1.0))


# Bytes that are not UTF-8 decode to lone surrogates under "surrogateescape".
_UNDECODED = re.compile("[\udc80-\udcff]")


def read_spec_file(path: str) -> A.Formula:
    """Parse a specification file (UTF-8, # comments, one formula)."""
    # Imported here: a builtin or probe spec never needs the parser.
    from .parser import parse

    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fp:
        text = fp.read()
    bad = _UNDECODED.search(text)
    if bad:
        at = bad.start()
        raise SpecError([Diagnostic("lexical", f"not valid UTF-8: byte 0x{ord(text[at]) - 0xDC00:02x}",
                                    text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))])
    return parse(text)


def resolve_spec(
    name: str, params: Mapping[str, float] | None = None
) -> tuple[str, A.Formula]:
    """Resolve a spec argument: builtin name, probe name, or file path."""
    if name == "builtin:phi1":
        return name, phi1(params)
    if name == "builtin:phi2":
        return name, phi2(params)
    if name.startswith("builtin:"):
        raise ConfigError(f"unknown builtin specification {name!r}")
    if name.startswith("probe:"):
        tail = name[len("probe:"):]
        if not tail.startswith("exists") or not tail[len("exists"):].isdigit():
            raise ConfigError(f"unknown probe specification {name!r}")
        return name, probe(int(tail[len("exists"):]))
    if not os.path.exists(name):
        raise ConfigError(f"specification file not found: {name}")
    return os.path.basename(name), read_spec_file(name)
