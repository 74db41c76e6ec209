import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from weightlab import (
    AsymmetricDistance,
    InconsistentPair,
    InvalidFunction,
    InvalidParams,
    NonpositiveWeight,
    ParseError,
    SuiteParams,
    a1_constant,
    annular_decay_constant,
    ap_constant,
    blo_norm,
    build_space,
    check_duality,
    check_harnack,
    check_power_props,
    generate,
    jones_factor,
    Tolerances,
    maximal,
    refined_jones,
    rhs_constant,
    verify_factorization,
)
from weightlab.factorization import refined_transform
from weightlab.families import sample_space, sample_weight
from weightlab.space import space_document, space_from_document

WORDS = ["a", "b"]
W = [1.0, 2.0]


@pytest.mark.parametrize("call, error", [
    (lambda sp: generate("grid", {"n": -1}), InvalidParams),
    (lambda sp: generate("grid", {"nx": "a"}), InvalidParams),
    (lambda sp: generate("path", {"n": "a"}), InvalidParams),
    (lambda sp: generate("snowflake", {"base": sp, "eps": "a"}), InvalidParams),
    (lambda sp: annular_decay_constant(sp, 1.0, float("nan")), InvalidParams),
    (lambda sp: maximal(sp, WORDS), InvalidFunction),
    (lambda sp: blo_norm(sp, WORDS), InvalidFunction),
    (lambda sp: blo_norm(sp, [[1.0], [2.0, 3.0]]), InvalidFunction),
    (lambda sp: a1_constant(sp, WORDS), NonpositiveWeight),
    (lambda sp: build_space([[0.0, 1.0], [1.0]], "explicit-matrix", [1.0, 1.0]),
     AsymmetricDistance),
    (lambda sp: build_space(5.0, "explicit-matrix", [1.0]), AsymmetricDistance),
    (lambda sp: build_space(5.0, "graph-shortest-path", [1.0]), AsymmetricDistance),
    (lambda sp: build_space(5.0, "euclidean", [1.0]), InvalidParams),
    (lambda sp: build_space(np.zeros((0, 0)), "explicit-matrix", []),
     (InvalidParams, "at least one point")),
    (lambda sp: sample_weight(np.random.default_rng(0), sp, "bogus"), InvalidParams),
    (lambda sp: sample_space(np.random.default_rng(0), 1), InvalidParams),
    (lambda sp: Tolerances(ineq=float("nan")), InvalidParams),
    (lambda sp: Tolerances(eq=-1.0), InvalidParams),
    (lambda sp: Tolerances(ineq=float("inf")), InvalidParams),
    (lambda sp: Tolerances(eq="a"), InvalidParams),
    (lambda sp: ap_constant(sp, [1.0, 2.0], np.inf), InvalidParams),
    (lambda sp: rhs_constant(sp, [1.0, 2.0], np.inf), InvalidParams),
    (lambda sp: refined_jones(sp, [1.0, 2.0], np.inf, 2.0), InvalidParams),
    (lambda sp: refined_transform([1.0, 2.0], [1.0, 2.0], 2.0, np.inf), InvalidParams),
    (lambda sp: SuiteParams(p=np.nan), InvalidParams),
    (lambda sp: SuiteParams(s=np.inf), InvalidParams),
    (lambda sp: ap_constant(sp, W, "2"), (InvalidParams, "exponent p")),
    (lambda sp: rhs_constant(sp, W, "2"), (InvalidParams, "exponent s")),
    (lambda sp: refined_jones(sp, W, "2", 2.0), (InvalidParams, "exponent p")),
    (lambda sp: jones_factor(sp, W, "2"), (InvalidParams, "exponent q")),
    (lambda sp: jones_factor(sp, W, np.inf), (InvalidParams, "exponent q")),
    (lambda sp: check_harnack(sp, W, "2"), (InvalidParams, "exponent p")),
    (lambda sp: check_duality(sp, W, 1.0), (InvalidParams, "exponent p")),
    (lambda sp: check_power_props(sp, W, np.nan, 2.0), (InvalidParams, "exponent s")),
    (lambda sp: refined_transform([1.0, np.nan], W, 2.0, 2.0), NonpositiveWeight),
    (lambda sp: refined_transform(W, [1.0, np.inf], 2.0, 2.0), NonpositiveWeight),
    (lambda sp: refined_transform(W, [1.0, 2.0, 3.0], 2.0, 2.0), NonpositiveWeight),
    (lambda sp: refined_transform([[1.0], [2.0, 3.0]], W, 2.0, 2.0), NonpositiveWeight),
    (lambda sp: verify_factorization(sp, W, refined_transform([1.0] * 3, [1.0] * 3, 2.0, 2.0)),
     InconsistentPair),
    (lambda sp: verify_factorization(sp, W, replace(refined_transform(W, W, 2.0, 2.0), p="2")),
     (InvalidParams, "exponent p")),
    (lambda sp: annular_decay_constant(sp, "1", 1.0), InvalidParams),
    (lambda sp: annular_decay_constant(sp, 1.0, "1"), InvalidParams),
    (lambda sp: sp.ball_family.ball_at(-1, 1), (InvalidParams, "center -1")),
    (lambda sp: sp.ball_family.ball_at(2, 1), (InvalidParams, "center 2")),
    (lambda sp: sp.ball_family.ball_at(1.5, 1), (InvalidParams, "center 1.5")),
    (lambda sp: sp.ball_family.ball_at(0, 1.5), (InvalidParams, "rank 1.5")),
    (lambda sp: sp.ball_family.ball_at(0, 0), (InvalidParams, "rank 0 at center 0")),
    (lambda sp: sp.ball_family.ball_at(0, int(sp.ball_family.ball_count[0]) + 1),
     (InvalidParams, "rank 3 at center 0")),
], ids=["grid-n", "grid-nx", "path-n", "snowflake-eps", "annular-nan-r_min",
        "maximal", "blo", "blo-ragged", "a1", "ragged-matrix", "scalar-matrix", "scalar-edges",
        "scalar-coords", "empty-space", "weight-family", "sample-max-n", "tolerance-nan",
        "tolerance-negative", "tolerance-inf", "tolerance-str",
        "ap-p-inf", "rhs-s-inf", "refined-jones-p-inf", "refined-transform-s-inf",
        "suite-p-nan", "suite-s-inf", "ap-p-str", "rhs-s-str", "refined-jones-p-str",
        "jones-q-str", "jones-q-inf", "harnack-p-str", "duality-p-1", "power-props-s-nan",
        "transform-nan",
        "transform-inf", "transform-lengths", "transform-ragged", "verify-pair-length",
        "verify-pair-p-str", "annular-alpha-str", "annular-r_min-str", "ball-center-negative",
        "ball-center-n", "ball-center-float", "ball-rank-float", "ball-rank-0",
        "ball-rank-past-count"])
def test_bad_input_raises_its_weightlab_error(two_point, call, error):
    error, match = error if isinstance(error, tuple) else (error, None)  # match: the message
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and prints no numpy warning on the way
        with pytest.raises(error, match=match):
            call(two_point)


@pytest.mark.parametrize("edit, field", [
    (lambda doc: doc.update(points=3), "points"),
    (lambda doc: doc.update(points="ab"), "points"),
    (lambda doc: doc.update(weights=[1.0, 2.0]), "weights"),
    (lambda doc: doc.update(weights={"w": [1.0, [2.0]]}), "weights"),
    (lambda doc: doc.update(weights={"w": ["a", "b"]}), "weights"),
    (lambda doc: doc["points"][1].update(coords=[1.0, 2.0]), "points"),
    (lambda doc: doc["points"][1].update(coords=["a"]), "points"),
    (lambda doc: doc.update(distances=[[0.0, "a"], [1.0, 0.0]]), "distances"),
    (lambda doc: doc.update(measure=[0.5, {}]), "measure"),
], ids=["points-int", "points-str", "weights-list", "weight-ragged", "weight-str",
        "coords-ragged", "coords-str", "distances-str", "measure-object"])
def test_malformed_document_is_a_parse_error(edit, field):
    doc = json.loads(json.dumps(space_document(build_space(
        [[0.0], [1.0]], "euclidean", [0.5, 0.5]), {"w": [1.0, 2.0]})))
    edit(doc)
    with pytest.raises(ParseError) as exc:
        space_from_document(doc)
    assert exc.value.field == field


@pytest.mark.parametrize("doc", [5, [1, 2]], ids=["number", "list"])
def test_document_must_be_an_object(doc):
    with pytest.raises(ParseError):
        space_from_document(doc)
