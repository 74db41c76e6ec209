import warnings

import numpy as np
import pytest

from weightlab import (
    AsymmetricDistance,
    InvalidFunction,
    InvalidParams,
    NonpositiveWeight,
    a1_constant,
    annular_decay_constant,
    blo_norm,
    build_space,
    generate,
    Tolerances,
    maximal,
)
from weightlab.families import sample_space, sample_weight

WORDS = ["a", "b"]


@pytest.mark.parametrize("call, error", [
    (lambda sp: generate("grid", {"n": -1}), InvalidParams),
    (lambda sp: generate("grid", {"nx": "a"}), InvalidParams),
    (lambda sp: generate("path", {"n": "a"}), InvalidParams),
    (lambda sp: generate("snowflake", {"base": sp, "eps": "a"}), InvalidParams),
    (lambda sp: annular_decay_constant(sp, 1.0, float("nan")), InvalidParams),
    (lambda sp: maximal(sp, WORDS), InvalidFunction),
    (lambda sp: blo_norm(sp, WORDS), InvalidFunction),
    (lambda sp: a1_constant(sp, WORDS), NonpositiveWeight),
    (lambda sp: build_space([[0.0, 1.0], [1.0]], "explicit-matrix", [1.0, 1.0]),
     AsymmetricDistance),
    (lambda sp: build_space(5.0, "explicit-matrix", [1.0]), AsymmetricDistance),
    (lambda sp: build_space(5.0, "graph-shortest-path", [1.0]), AsymmetricDistance),
    (lambda sp: build_space(5.0, "euclidean", [1.0]), InvalidParams),
    (lambda sp: sample_weight(np.random.default_rng(0), sp, "bogus"), InvalidParams),
    (lambda sp: sample_space(np.random.default_rng(0), 1), InvalidParams),
    (lambda sp: Tolerances(ineq=float("nan")), InvalidParams),
    (lambda sp: Tolerances(eq=-1.0), InvalidParams),
    (lambda sp: Tolerances(ineq=float("inf")), InvalidParams),
    (lambda sp: Tolerances(eq="a"), InvalidParams),
], ids=["grid-n", "grid-nx", "path-n", "snowflake-eps", "annular-nan-r_min",
        "maximal", "blo", "a1", "ragged-matrix", "scalar-matrix", "scalar-edges",
        "scalar-coords", "weight-family", "sample-max-n", "tolerance-nan",
        "tolerance-negative", "tolerance-inf", "tolerance-str"])
def test_bad_input_raises_its_weightlab_error(two_point, call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and prints no numpy warning on the way
        with pytest.raises(error):
            call(two_point)
