"""Golden verdicts: the evaluator's output pinned bit for bit.

The digests below were recorded with the earlier tree-walking evaluator,
which ran spatial ``A & B`` as its De Morgan rewrite ``~(~A | ~B)``. Any
change to the evaluator, the desugaring or the region algebra that moves a
single verdict of these seeded cases changes a digest.
"""

import hashlib
import random

from percemon.evaluate import evaluate_trace
from percemon.generator import GenConfig, generate_frames
from percemon.stql.builtins import phi1, phi2
from percemon.stql.desugar import desugar
from percemon.stql.parser import parse

from randgen import FormulaGen, random_trace

RANDOM_FORMULAS = 600
# builtin:phi2 is true whenever the previous frame holds a second object (its
# existential body is an implication), so pin a conjunctive variant as well,
# whose verdicts do depend on the region algebra.
OVERLAP_SPEC = (
    "forall {a} @ (prev true implies prev exists {b} @ "
    "(a == b and area(bbox(a) & bbox(b)) / area(bbox(a)) >= 0.3))"
)
RANDOM_DIGEST = "d50f2fe77e2d1d7b32b0c54d382a3beeb0c5910dbe02b2f76fb193f7b16a8a03"
BUILTIN_DIGEST = "d6c8134eecc033eca8bb7d9c52aa4720d152586d9e3b20237409f68f4eb6b369"


def _digest(verdict_lists) -> str:
    h = hashlib.sha256()
    for verdicts in verdict_lists:
        h.update("".join("1" if v else "0" for v in verdicts).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_random_sugared_formulas_match_golden_digest():
    rng = random.Random(2108)
    gen = FormulaGen(rng, max_depth=4, allow_sugar=True)

    def cases():
        for _ in range(RANDOM_FORMULAS):
            phi = desugar(gen.formula())
            trace = random_trace(rng, max_frames=8, max_objects=4)
            yield evaluate_trace(phi, trace)

    assert _digest(cases()) == RANDOM_DIGEST


def test_builtins_on_faulty_streams_match_golden_digest():
    def cases():
        for seed in (3, 11, 29):
            frames = list(generate_frames(GenConfig(
                frames=80, objects=6, drop_prob=0.1, jump_prob=0.05,
                conf_dip_prob=0.1, seed=seed,
            )))
            for spec in (phi1(), phi2(), parse(OVERLAP_SPEC)):
                yield evaluate_trace(desugar(spec), frames)

    assert _digest(cases()) == BUILTIN_DIGEST
