"""Library calls given a malformed argument raise a named error that says
which argument is at fault: never a bare TypeError or AttributeError, and
never a run that reads the value as some other valid one (a distance of 1.5
truncated to 1, True read as 1)."""

import re

import numpy as np
import pytest

from cmtforest.analysis import (
    LatticeChainModel, cluster_frequency, component_statistic_survey, connectivity_decay_probe,
    count_components_probe, in_degree_profile, level_set_bijection, nested_level_average,
)
from cmtforest.chains import (
    green_function, green_table, kernel_power, meet_and_stick_coupling, path_collision_estimate,
    shift_coupling, tv_consecutive, tv_profile,
)
from cmtforest.errors import BadDimension, BadGraph, ConfigError, MalformedJump, UnknownVertex
from cmtforest.forest import (
    ancestral_line, build_forest, classify_component, component_heights, components, descendants,
    dump_forest, height, level_set, reverse_jump,
)
from cmtforest.graphs import complete_graph, cycle_graph, path_graph, regular_tree, torus_graph
from cmtforest.lattice import (
    JumpDistribution,
    LatticeSpec,
    check_cycle_free,
    check_model_conditions,
    check_weak_aperiodicity,
    check_weak_irreducibility,
    in_lattice,
    integer_lattice,
    lattice_coordinates,
    sample_lattice_cmt,
    uniform_jumps,
)
from cmtforest.models import SpaceTimeGraph, nguyen_atoms, nguyen_model, renewal_model
from cmtforest.points import (
    discrete_strip, howard_model, level_csv, sample_bernoulli, sample_poisson,
)
from cmtforest.wusf import conditional_wilson, lerw, spanning_trees, wilson_ust, wired_ball

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

# every point and atom is read by errors._point: no coordinate is truncated by int()
# and no bool is read as 0 or 1
POINT = "must be an integer or a sequence of integers, got"
CASES.update({
    "green_function-target": (lambda: green_function(RENEWAL, 2.7), f"target {POINT} 2.7"),
    "green_function-target-integral-float": (lambda: green_function(RENEWAL, (2.0,)),
                                             f"target {POINT} (2.0,)"),
    "green_table-target-bool": (lambda: green_table(RENEWAL, [True]), f"targets[0] {POINT} True"),
    "green_table-second-target": (lambda: green_table(RENEWAL, [3, (4.0,)]),
                                  f"targets[1] {POINT} (4.0,)"),
    "meet_and_stick_coupling-y": (lambda: meet_and_stick_coupling(RENEWAL, 0, 2.9, 100, 1),
                                  f"y {POINT} 2.9"),
    "shift_coupling-x": (lambda: shift_coupling(RENEWAL, None, 1.5, 3, 50, 1), f"x {POINT} 1.5"),
    "path_collision_estimate-x-str": (lambda: path_collision_estimate(RENEWAL, "0", 3, 50, 5, 1),
                                      f"x {POINT} '0'"),
    "JumpDistribution-atom": (lambda: JumpDistribution(((1.9,), (2,)), (0.5, 0.5)),
                              f"atoms[0] {POINT} (1.9,)"),
    "uniform_jumps-atom": (lambda: uniform_jumps([(1,), (1.5,)]), f"atoms[1] {POINT} (1.5,)"),
    "uniform_jumps-atom-str": (lambda: uniform_jumps(["12"]), f"atoms[0] {POINT} '12'"),
    "lattice_coordinates-point": (lambda: lattice_coordinates(integer_lattice(1), (2.0,)),
                                  f"point {POINT} (2.0,)"),
    "lattice_coordinates-point-0d-array": (
        lambda: lattice_coordinates(integer_lattice(1), np.array(3)), f"point {POINT} array(3)"),
    "lattice_coordinates-point-2d-array": (
        lambda: lattice_coordinates(integer_lattice(2), np.array([[1, 0]])),
        f"point {POINT} array([[1, 0]])"),
    "in_lattice-point-bool": (lambda: in_lattice(integer_lattice(1), True), f"point {POINT} True"),
    "LatticeChainModel-origin": (lambda: LatticeChainModel(NGUYEN).at_distance((0, 0.5), 2),
                                 f"origin {POINT} (0, 0.5)"),
    "LatticeChainModel-starts": (
        lambda: LatticeChainModel(NGUYEN).run([(0, 0), (2, True)], 5, 2, 1),
        f"starts[1] {POINT} (2, True)"),
    "connectivity_decay_probe-origin": (
        lambda: connectivity_decay_probe(NGUYEN, (0, 0.5), [1], 20, 50, 1),
        f"origin {POINT} (0, 0.5)"),
    # a lattice that is not a LatticeSpec is named by the one check every lattice question reaches
    "lattice_coordinates-lattice": (lambda: lattice_coordinates("x", (1,)),
                                    "lattice must be a LatticeSpec, got 'x'"),
    "in_lattice-lattice": (lambda: in_lattice("x", (1,)), "lattice must be a LatticeSpec, got 'x'"),
    "shift_coupling-lattice": (lambda: shift_coupling(RENEWAL, "x", 0, 3, 50, 1),
                               "lattice must be a LatticeSpec, got 'x'"),
})

# graph sizes and time ranges were read through int() or range(): a float
# was truncated or ended in a bare TypeError, and True read as 1
CASES.update({
    "complete_graph-n-bool": (lambda: complete_graph(True), "n must be an integer, got True"),
    "complete_graph-n": (lambda: complete_graph(2.5), "n must be an integer, got 2.5"),
    "cycle_graph-n": (lambda: cycle_graph(4.0), "n must be an integer, got 4.0"),
    "cycle_graph-n-bool": (lambda: cycle_graph(True), "n must be an integer, got True"),
    "path_graph-n": (lambda: path_graph(3.5), "n must be an integer, got 3.5"),
    "torus_graph-side": (lambda: torus_graph(3.0, 2), "side must be an integer, got 3.0"),
    "torus_graph-dimension": (lambda: torus_graph(3, 2.0),
                              "dimension must be an integer, got 2.0"),
    "torus_graph-dimension-bool": (lambda: torus_graph(3, True),
                                   "dimension must be an integer, got True"),
    "regular_tree-degree": (lambda: regular_tree(2.0, 1), "degree must be an integer, got 2.0"),
    "regular_tree-depth": (lambda: regular_tree(3, 1.5), "depth must be an integer, got 1.5"),
    "regular_tree-depth-bool": (lambda: regular_tree(3, True),
                                "depth must be an integer, got True"),
    "SpaceTimeGraph-time_range-float": (lambda: SpaceTimeGraph(cycle_graph(3), (0.5, 3.9)),
                                        "time_range[0] must be an integer, got 0.5"),
    "SpaceTimeGraph-time_range-str": (lambda: SpaceTimeGraph(cycle_graph(3), ("1", "3")),
                                      "time_range[0] must be an integer, got '1'"),
    "SpaceTimeGraph-time_range-bool": (lambda: SpaceTimeGraph(cycle_graph(3), (True, 2)),
                                       "time_range[0] must be an integer, got True"),
    "SpaceTimeGraph-time_range-end": (lambda: SpaceTimeGraph(cycle_graph(3), (0, 2.0)),
                                      "time_range[1] must be an integer, got 2.0"),
    "SpaceTimeGraph-time_range-triple": (lambda: SpaceTimeGraph(cycle_graph(3), (0, 1, 2)),
                                         "time_range must be a (lo, hi) pair, got (0, 1, 2)"),
    "SpaceTimeGraph-time_range-int": (lambda: SpaceTimeGraph(cycle_graph(3), 5),
                                      "time_range must be a (lo, hi) pair, got 5"),
})


# a jump law that is not a JumpDistribution ended in a bare AttributeError
LAW = "jumps must be a JumpDistribution, got [(1,)]"
CASES.update({f"{name}-jumps": (call, LAW) for name, call in {
    "check_cycle_free": lambda: check_cycle_free([(1,)]),
    "check_weak_irreducibility": lambda: check_weak_irreducibility([(1,)]),
    "check_weak_aperiodicity": lambda: check_weak_aperiodicity([(1,)]),
    "check_model_conditions": lambda: check_model_conditions([(1,)], integer_lattice(1)),
    "sample_lattice_cmt": lambda: sample_lattice_cmt(integer_lattice(1), [(1,)], [(0, 5)], 1),
    "green_function": lambda: green_function([(1,)], 3),
    "green_table": lambda: green_table([(1,)], [3]),
    "kernel_power": lambda: kernel_power([(1,)], 2),
    "tv_profile": lambda: tv_profile([(1,)], 3),
    "tv_consecutive": lambda: tv_consecutive([(1,)], 3),
    "meet_and_stick_coupling": lambda: meet_and_stick_coupling([(1,)], 0, 1, 10, 1),
    "shift_coupling": lambda: shift_coupling([(1,)], None, 0, 1, 10, 1),
    "path_collision_estimate": lambda: path_collision_estimate([(1,)], 0, 1, 10, 5, 1),
    "renewal_model": lambda: renewal_model([(1,)], (0, 5), 1),
    "LatticeChainModel": lambda: LatticeChainModel([(1,)]),
}.items()})

# the wusf samplers read a graph's frame: a dict ended in a bare AttributeError
GRAPH = "graph must be a FiniteGraph, got dict"
CASES.update({
    "wilson_ust-graph": (lambda: wilson_ust({0: (1,), 1: (0,)}, 0, 1), GRAPH),
    "conditional_wilson-graph": (lambda: conditional_wilson({0: (1,), 1: (0,)}, [0], 1), GRAPH),
    "lerw-graph": (lambda: lerw({0: (1,), 1: (0,)}, 0, {1}, 1), GRAPH),
    "spanning_trees-graph": (lambda: spanning_trees({0: (1,), 1: (0,)}), GRAPH),
    # True == 1, so a True root gave a tree rooted at vertex 1 with roots {True}
    "wilson_ust-root-bool": (lambda: wilson_ust(complete_graph(4), True, 1),
                             "root must be a vertex, not the bool True"),
    "wilson_ust-root-numpy-bool": (lambda: wilson_ust(complete_graph(4), np.True_, 1),
                                   "root must be a vertex, not the bool np.True_"),
    # lerw walked from vertex 1 and returned [True, 0, 2]
    "lerw-start-bool": (lambda: lerw(complete_graph(4), True, {2}, 1),
                        "start must be a vertex, not the bool True"),
    "lerw-stop_set-bool": (lambda: lerw(complete_graph(4), 0, [1, True], 1),
                           "stop_set entry must be a vertex, not the bool True"),
    # conditional_wilson built a parent map keyed by True, or called [1, True] not simple
    "conditional_wilson-path-bool": (
        lambda: conditional_wilson(complete_graph(4), [True, 2], 1),
        "path[0] must be a vertex, not the bool True"),
    "conditional_wilson-path-repeat-bool": (
        lambda: conditional_wilson(complete_graph(4), [1, True], 1),
        "path[1] must be a vertex, not the bool True"),
})


# a window reader read its argument's arrays: anything else ended in a bare AttributeError
WINDOW_READERS = {
    "ancestral_line": lambda w: ancestral_line(w, 0, 3),
    "reverse_jump": reverse_jump,
    "components": components,
    "classify_component": lambda w: classify_component(w, 0),
    "descendants": lambda w: descendants(w, 0, 1),
    "level_set": lambda w: level_set(w, 0, 1),
    "height": lambda w: height(w, 0),
    "component_heights": lambda w: component_heights(w, 0),
    "dump_forest": dump_forest,
    "component_statistic_survey": lambda w: component_statistic_survey(w, "leaf-fraction", 1),
    "nested_level_average": lambda w: nested_level_average(w, float, 0, 1),
    "cluster_frequency": lambda w: cluster_frequency(w, 0, 100, 1),
    "in_degree_profile": in_degree_profile,
    "level_set_bijection": lambda w: level_set_bijection(w, 1),
    "level_csv": lambda w: level_csv(sample_poisson(1.0, [(0, 2), (0, 2)], 1), w),
}
for reader, call in WINDOW_READERS.items():
    for bad in (5, "x", None, {}):
        CASES[f"{reader}-{type(bad).__name__}"] = (
            lambda call=call, bad=bad: call(bad),
            f"forest must be a ForestWindow, got {type(bad).__name__}")

CASES.update({
    # True == 1, so each read p = 1.0
    "discrete_strip-p-bool": (lambda: discrete_strip(True, [(0, 3), (0, 3)], 1),
                              "p must be a probability, not the bool True"),
    "sample_bernoulli-p-bool": (lambda: sample_bernoulli(True, [(0, 3)], 1),
                                "p must be a probability, not the bool True"),
    "sample_bernoulli-p-numpy-bool": (lambda: sample_bernoulli(np.True_, [(0, 3)], 1),
                                      "p must be a probability, not the bool np.True_"),
    "howard_model-p-bool": (lambda: howard_model(True, [(0, 3), (0, 3)], 1),
                            "p must be a probability, not the bool True"),
    # a dump wrote dim=2 for 2.7 and dim=1 for True, and a str failed only at dump time
    "build_forest-dimension-float": (lambda: build_forest([0], [], dimension=2.7),
                                     "dimension must be an integer >= 1, got 2.7"),
    "build_forest-dimension-bool": (lambda: build_forest([0], [], dimension=True),
                                    "dimension must be an integer >= 1, got True"),
    "build_forest-dimension-str": (lambda: build_forest([0], [], dimension="x"),
                                   "dimension must be an integer >= 1, got 'x'"),
    "build_forest-dimension-zero": (
        lambda: build_forest(np.arange(2), np.array([1, -1]), dimension=0),
        "dimension must be an integer >= 1, got 0"),
    # each ended in a bare TypeError from iterating the argument
    "conditional_wilson-path-int": (lambda: conditional_wilson(complete_graph(4), 5, 1),
                                    "path must be an iterable of vertices, got 5"),
    "lerw-stop_set-int": (lambda: lerw(complete_graph(4), 0, 5, 1),
                          "stop_set must be an iterable of vertices, got 5"),
})


@pytest.mark.parametrize("call, message", CASES.values(), ids=list(CASES))
def test_bad_argument_is_named(call, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: lerw(complete_graph(4), [0], {1}, 1),
    lambda: lerw(complete_graph(4), 0, [[1]], 1),
    lambda: conditional_wilson(complete_graph(4), [[0]], 1),
    lambda: wilson_ust(complete_graph(4), [0], 1),
], ids=["lerw-start", "lerw-stop_set", "conditional_wilson-path", "wilson_ust-root"])
def test_an_unhashable_walk_vertex_is_unknown(call):
    # a list vertex ended in a bare TypeError: unhashable type: 'list'
    with pytest.raises(UnknownVertex, match=r"\[\d\]"):
        call()


def test_a_window_keeps_an_integer_dimension():
    fw = build_forest([0, 1], [(0, 1)], dimension=np.int64(3))
    assert type(fw.dimension) is int and dump_forest(fw).startswith("dim=3 ")


def test_integer_dimension_below_two_keeps_bad_dimension():
    with pytest.raises(BadDimension, match="^need at least two coordinates$"):
        nguyen_model(1, [(0, 3)], 1)


@pytest.mark.parametrize("call", [lambda: complete_graph(0), lambda: cycle_graph(2),
                                  lambda: path_graph(1), lambda: torus_graph(1, 2),
                                  lambda: torus_graph(3, 0), lambda: regular_tree(1, 2),
                                  lambda: regular_tree(3, -1)],
                         ids=["complete", "cycle", "path", "torus-side", "torus-dimension",
                              "tree-degree", "tree-depth"])
def test_graph_size_out_of_range_keeps_bad_graph(call):
    with pytest.raises(BadGraph):
        call()


def test_space_time_range_of_numpy_integers_reads_as_python_ints():
    space_time = SpaceTimeGraph(cycle_graph(3), (np.int64(-1), np.int32(2)))
    assert space_time.time_range == (-1, 2)
    assert all(type(t) is int for t in space_time.time_range)


@pytest.mark.parametrize("call, message", [
    (lambda: green_function(RENEWAL, (1, 2)), "target (1, 2) has 2 coordinates"),
    (lambda: meet_and_stick_coupling(NGUYEN, 0, (0, 0), 10, 1), "x (0,) has 1 coordinates"),
    (lambda: LatticeChainModel(NGUYEN).at_distance((0, 0, 0), 1),
     "origin (0, 0, 0) has 3 coordinates"),
], ids=["green_function", "meet_and_stick_coupling", "LatticeChainModel"])
def test_chain_point_of_another_length_is_named(call, message):
    with pytest.raises(BadDimension, match=f"^{re.escape(message)}; the lattice has dimension "):
        call()


@pytest.mark.parametrize("weight", [float("inf"), float("nan"), "a", "nan", True, None, 1j,
                                    np.True_],
                         ids=["inf", "nan", "str", "str-nan", "bool", "None", "complex",
                              "numpy-bool"])
def test_jump_weight_that_is_not_a_finite_real_is_named(weight):
    # inf was an OverflowError, nan and "a" a bare ValueError, True read as 1
    with pytest.raises(MalformedJump, match=rf"^weights\[1\] must be a finite real number, "
                                            rf"got {re.escape(repr(weight))}$"):
        JumpDistribution(((1,), (2,)), (0.5, weight))


@pytest.mark.parametrize("call, message", [
    (lambda: JumpDistribution(((1,),), None), "weights must be a sequence, got None"),
    (lambda: JumpDistribution(5, (1,)), "atoms must be a sequence, got 5"),
    (lambda: uniform_jumps(5), "atoms must be a sequence, got 5"),
], ids=["weights", "atoms", "uniform_jumps"])
def test_jump_law_that_is_not_a_sequence_is_named(call, message):
    # each ended in a bare TypeError from iterating or measuring the argument
    with pytest.raises(MalformedJump, match=f"^{re.escape(message)}$"):
        call()


def test_jump_weights_of_every_real_kind_are_read_exactly():
    law = JumpDistribution(((1,), (2,), (3,)), (np.float32(0.25), "1/4", np.int64(1) / 2))
    assert law.weights == (0.25, 0.25, 0.5)
