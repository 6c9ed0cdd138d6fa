"""Library calls given a malformed argument raise a named error that says
which argument is at fault: never a bare TypeError or AttributeError, and
never a run that reads the value as some other valid one (a distance of 1.5
truncated to 1, True read as 1)."""

import re

import pytest

from cmtforest.analysis import connectivity_decay_probe, count_components_probe, in_degree_profile
from cmtforest.errors import BadDimension, ConfigError
from cmtforest.lattice import (
    LatticeSpec,
    check_model_conditions,
    lattice_coordinates,
    uniform_jumps,
)
from cmtforest.models import nguyen_atoms, nguyen_model, renewal_model
from cmtforest.wusf import wired_ball

NGUYEN = uniform_jumps(nguyen_atoms(2))
RENEWAL = uniform_jumps([(1,), (2,)])
BOX = [(-5, 5), (-5, 0)]

CASES = {
    "wired_ball-radius": (lambda: wired_ball(1.5, 2), "radius must be an integer >= 0, got 1.5"),
    "wired_ball-dimension": (lambda: wired_ball(1, True),
                             "dimension must be an integer >= 1, got True"),
    "nguyen_model-d": (lambda: nguyen_model(2.0, BOX, 1), "d must be an integer, got 2.0"),
    "renewal_model-interval": (lambda: renewal_model(RENEWAL, (0, 10.5), 1),
                               "interval[1] must be an integer, got 10.5"),
    "renewal_model-interval-pair": (lambda: renewal_model(RENEWAL, (0, 1, 2), 1),
                                    "interval must be a (lo, hi) pair, got (0, 1, 2)"),
    "in_degree_profile-region": (lambda: in_degree_profile(nguyen_model(2, BOX, 1), region=5),
                                 "region must be an iterable of vertices, got 5"),
    "check_model_conditions-lattice": (lambda: check_model_conditions(RENEWAL, "x"),
                                       "lattice must be a LatticeSpec, got 'x'"),
    "LatticeSpec-dimension-bool": (lambda: LatticeSpec(True),
                                   "dimension must be an integer, got True"),
    "LatticeSpec-dimension-float": (lambda: LatticeSpec(2.5),
                                    "dimension must be an integer, got 2.5"),
    "LatticeSpec-dimension-str": (lambda: LatticeSpec("2"),
                                  "dimension must be an integer, got '2'"),
    "lattice_coordinates-basis": (
        lambda: lattice_coordinates(LatticeSpec(2, ((1, 0.5), (0, 1))), (1, 0)),
        "basis[0][1] must be an integer, got 0.5"),
    "connectivity_decay_probe-distance": (
        lambda: connectivity_decay_probe(NGUYEN, (0, 0), [0, 1.5], 20, 50, 1),
        "distance_list[1] must be an integer >= 0, got 1.5"),
    "connectivity_decay_probe-distance-bool": (
        lambda: connectivity_decay_probe(NGUYEN, (0, 0), [True], 20, 50, 1),
        "distance_list[0] must be an integer >= 0, got True"),
    "count_components_probe-k": (lambda: count_components_probe(NGUYEN, 1.5, 50, 20, 1),
                                 "k must be an integer >= 1, got 1.5"),
    "count_components_probe-k-bool": (lambda: count_components_probe(NGUYEN, True, 50, 20, 1),
                                      "k must be an integer >= 1, got True"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=list(CASES))
def test_bad_argument_is_named(call, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call()


def test_integer_dimension_below_two_keeps_bad_dimension():
    with pytest.raises(BadDimension, match="^need at least two coordinates$"):
        nguyen_model(1, [(0, 3)], 1)
