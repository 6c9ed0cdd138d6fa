"""Probe-layer checks: dispersion surveys, nested averages, torus
occupation, in-degree transport, lockstep chain probes, Green decay,
the right-stable level matching, and the canopy negative control.

Oracles used here: the in-degree law of the planar drop model is
Binomial(2, 1/2) per interior site (two incoming-jump indicators, each
Bernoulli(1/2), independent across preimage sites); the expected Green
value after n steps of the same model collapses to a central binomial
coefficient because only the n-th kernel power can reach level -n; the
green_table sweep is compared against green_function term by term.
"""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cmtforest.analysis import (
    GraphChainModel,
    LatticeChainModel,
    ProbeReport,
    canopy_distinguishability_demo,
    cluster_frequency,
    component_statistic_survey,
    connectivity_decay_probe,
    count_components_probe,
    green_table,
    in_degree_profile,
    level_set_bijection,
    nested_level_average,
    one_endedness_probe,
    probe_csv,
    probe_json,
    right_stable_allocation,
)
from cmtforest.chains import green_function, path_collision_estimate
from cmtforest.errors import (
    BadDimension,
    ConfigError,
    CyclicComponent,
    Empty,
    NeedsTorus,
    TooLarge,
    UnknownVertex,
)
from cmtforest.forest import build_forest, level_set
from cmtforest.graphs import regular_tree
from cmtforest.lattice import even_sublattice, integer_lattice, sample_lattice_cmt, uniform_jumps
from cmtforest.models import nguyen_atoms, nguyen_model, nguyen_variant, variant_atoms


def delta_chain_forest(n=12):
    return build_forest(range(n), {v: v + 1 for v in range(n - 1)}, interior=range(n - 1))


def interleaved_chains_forest():
    # three chains 0,3,6,.. / 1,4,7,.. / 2,5,8,.., ten vertices each
    return build_forest(range(30), {v: v + 3 for v in range(27)})


def two_ring_torus():
    jump = {v: v + 1 for v in range(4)}
    jump[4] = 0
    jump.update({v: v + 1 for v in range(5, 19)})
    jump[19] = 5
    return build_forest(
        range(20), jump, metadata={"wrap": (20,), "box": ((0, 19),)}
    )


def renewal_jumps():
    return uniform_jumps([(1,), (2,)])


def nguyen_torus(atoms, seed):
    return sample_lattice_cmt(
        even_sublattice(2), uniform_jumps(atoms), [(0, 15), (0, 15)], seed, wrap=(16, 16)
    )


# -- component statistic survey ----------------------------------------------------


def test_survey_single_component_cv_zero():
    star = build_forest([0, 1, 2, 3], {1: 0, 2: 0, 3: 0})
    rep = component_statistic_survey(star, "mean-in-degree", 1)
    assert rep.units == (0,)
    assert rep.values == (0.75,)
    assert rep.details["cv"] == 0.0
    rep = component_statistic_survey(star, "leaf-fraction", 1)
    assert rep.values == (0.75,)


def test_survey_interleaved_chains_exact():
    forest = interleaved_chains_forest()
    rep = component_statistic_survey(forest, "leaf-fraction", 5)
    assert rep.units == (0, 1, 2)
    assert rep.values == (0.1, 0.1, 0.1)
    assert rep.details["cv"] == 0.0
    assert rep.trials == (10, 10, 10)
    # the far end of each chain has no in-window jump
    assert rep.truncation_fraction == 1.0
    rep = component_statistic_survey(forest, "mean-in-degree", 5)
    assert rep.values == (0.9, 0.9, 0.9)


def test_survey_jump_frequency_vector():
    forest = interleaved_chains_forest()
    rep = component_statistic_survey(forest, "jump-frequency-vector", 5)
    assert rep.details["alphabet"] == ["3"]
    assert rep.values == ((1.0,), (1.0,), (1.0,))
    assert rep.details["cv"] == 0.0
    assert rep.details["cv_vector"] == [0.0]


@pytest.mark.parametrize("coords, named, back_step", [
    ([[-2**62], [2**62]], "jump increment 9223372036854775808 from -4611686018427387904",
     "-9223372036854775808"),
    ([[-2**62, 0], [2**62, 1]],
     "jump increment (9223372036854775808, 1) from (-4611686018427387904, 0)",
     "(-9223372036854775808, -1)"),
], ids=["1d", "2d"])
def test_survey_names_a_jump_increment_past_int64(coords, named, back_step):
    # the int64 difference wrapped to -2**63, which the survey reported as a step
    forest = build_forest(np.array(coords), np.array([1, -1]))
    with pytest.raises(TooLarge, match=f"^{re.escape(named)} is past int64$"):
        component_statistic_survey(forest, "jump-frequency-vector", 1)
    back = build_forest(np.array(coords), np.array([-1, 0]))  # -2**63 itself is an int64
    rep = component_statistic_survey(back, "jump-frequency-vector", 1)
    assert rep.details["alphabet"] == [back_step]


def test_survey_height_range_skips_cycles():
    forest = build_forest(range(5), {0: 1, 1: 0, 2: 3, 3: 4})
    rep = component_statistic_survey(forest, "height-range-per-size", 1)
    assert rep.units == (1,)
    assert rep.values == (pytest.approx(2 / 3),)
    with pytest.raises(Empty):
        component_statistic_survey(
            build_forest([0, 1], {0: 1, 1: 0}), "height-range-per-size", 1
        )


def test_survey_errors():
    forest = interleaved_chains_forest()
    with pytest.raises(ConfigError):
        component_statistic_survey(forest, "perimeter", 1)
    with pytest.raises(ConfigError):
        component_statistic_survey(forest, "leaf-fraction", 0)
    with pytest.raises(Empty):
        component_statistic_survey(forest, "leaf-fraction", 11)


# -- nested level averages ---------------------------------------------------------


def test_nested_constant_function_is_one():
    forest = nguyen_variant([(-12, 12), (-24, 0)], 0x21)
    out = nested_level_average(forest, lambda w: 1, (0, -8), 5)
    assert len(out) == 6
    assert all(a.value == 1.0 for a in out)
    assert [a.n for a in out] == list(range(6))


def test_nested_chain_averages_stay_at_start():
    """All backward sets of a chain are the single start vertex, so every
    average equals f at the start, whatever f does further down."""
    forest = delta_chain_forest(10)
    out = nested_level_average(forest, lambda w: w, 2, 5)
    assert [a.value for a in out] == [2.0] * 6
    assert all(a.count == 1 for a in out)


def test_nested_cycle_raises():
    forest = build_forest([0, 1], {0: 1, 1: 0})
    with pytest.raises(CyclicComponent):
        nested_level_average(forest, lambda w: 1, 0, 3)


def test_nested_negative_depth_is_named():
    with pytest.raises(ConfigError, match="^n_max must be an integer >= 0"):
        nested_level_average(delta_chain_forest(10), lambda w: w, 2, -1)


def test_nested_truncation_flag():
    forest = build_forest(range(7), {v: v + 1 for v in range(6)}, interior=[2, 3, 4, 5])
    out = nested_level_average(forest, lambda w: w, 4, 2)
    assert [a.truncated for a in out] == [False, False, True]


def test_nested_variant_parity_near_half():
    # backward cones are critical (mean in-degree 1), so most starts give
    # tiny sets; probe a grid of starts and keep the widest cone
    forest = nguyen_variant([(-40, 40), (-90, 0)], 7)
    best = None
    for t0 in (-24, -30, -36):
        for x in range(-6, 7, 2):
            v = (x, t0) if (x + t0) % 2 == 0 else (x + 1, t0)
            out = nested_level_average(forest, lambda w: w[0] % 2, v, 16)
            if len(out) == 17 and (best is None or out[-1].count > best[-1].count):
                best = out
    assert best is not None
    assert all(a.truncated is False for a in best)
    last = best[-1]
    assert last.count >= 8
    assert abs(last.value - 0.5) <= 4 * 0.5 / math.sqrt(last.count)


# -- cluster frequency ---------------------------------------------------------------


def test_cluster_single_component_is_one():
    jump = {v: v + 1 for v in range(9)}
    jump[9] = 0
    ring = build_forest(range(10), jump, metadata={"wrap": (10,), "box": ((0, 9),)})
    rep = cluster_frequency(ring, 0, 2000, 0x23)
    assert rep.values == (1.0,)
    assert rep.half_widths == (0.0,)


def test_cluster_two_rings_partition():
    forest = two_ring_torus()
    small = cluster_frequency(forest, 0, 40000, 0x24)
    large = cluster_frequency(forest, 1, 40000, 0x24)
    assert abs(small.values[0] - 0.25) <= small.half_widths[0]
    assert abs(large.values[0] - 0.75) <= large.half_widths[0]
    # shared walk: the two indicators partition every step
    assert abs(small.values[0] + large.values[0] - 1.0) < 1e-9
    again = cluster_frequency(forest, 0, 40000, 0x24)
    assert again.values == small.values
    assert again.half_widths == small.half_widths


def test_cluster_needs_torus():
    flat = nguyen_model(2, [(-6, 6), (-6, 6)], 0x25)
    with pytest.raises(NeedsTorus):
        cluster_frequency(flat, 0, 100, 1)
    half_wrapped = build_forest(
        [(0, 0), (1, 0)],
        {(0, 0): (1, 0)},
        dimension=2,
        metadata={"wrap": (2, None), "box": ((0, 1), (0, 0))},
    )
    with pytest.raises(NeedsTorus):
        cluster_frequency(half_wrapped, 0, 100, 1)
    overhanging = build_forest(range(5), {v: (v + 1) % 5 for v in range(5)},
                               metadata={"wrap": (4,), "box": ((0, 3),)})
    with pytest.raises(NeedsTorus, match="outside the torus box"):
        cluster_frequency(overhanging, 0, 100, 1)


def test_cluster_walk_onto_a_missing_site_is_named():
    # increments 1, 2 and 1 mod 4 step the walk onto site 2, which is no vertex
    gappy = build_forest([0, 1, 3], {0: 1, 1: 3, 3: 0},
                         metadata={"wrap": (4,), "box": ((0, 3),)})
    with pytest.raises(UnknownVertex, match="2"):
        cluster_frequency(gappy, 0, 200, 1)


def test_cluster_bad_component_id():
    forest = two_ring_torus()
    with pytest.raises(ConfigError):
        cluster_frequency(forest, 99, 100, 1)


def test_cluster_too_few_walk_steps_names_the_field():
    # under 100 steps the 100 half-width blocks are empty and the band is nan
    torus = sample_lattice_cmt(integer_lattice(2), uniform_jumps([(1, 1), (1, -1)]),
                               [(0, 9), (0, 9)], 3, wrap=(10, 10))
    with pytest.raises(ConfigError, match="walk_steps"):
        cluster_frequency(torus, 0, 50, 1)
    assert cluster_frequency(torus, 0, 100, 1).half_widths[0] >= 0.0


# -- in-degree profiles ---------------------------------------------------------------


def test_in_degree_chain_region_all_ones():
    forest = delta_chain_forest(31)
    region = [v for v in forest.vertices if v - 1 in forest.vertices]
    prof = in_degree_profile(forest, region)
    assert prof.mean == Fraction(1)
    assert prof.histogram == {1: 30}
    assert prof.region_size == 30


def test_in_degree_variant_torus_mean_exactly_one():
    forest = nguyen_torus(variant_atoms(), 0x26)
    prof = in_degree_profile(forest)
    assert prof.mean == Fraction(1)
    assert prof.region_size == 128
    assert sum(prof.histogram.values()) == 128
    assert sum(k * c for k, c in prof.histogram.items()) == 128


def test_in_degree_nguyen_interior_matches_binomial():
    forest = nguyen_model(2, [(-20, 20), (-20, 20)], 0x27)
    region = [
        (x, y)
        for (x, y) in forest.vertices
        if -19 <= x <= 19 and -20 <= y <= 19
    ]
    n = len(region)
    assert n == 780
    prof = in_degree_profile(forest, region)
    law = {0: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(1, 4)}
    for k, p in law.items():
        band = 4 * math.sqrt(n * p * (1 - p))
        assert abs(prof.histogram.get(k, 0) - n * p) <= band


def test_in_degree_unknown_region():
    forest = delta_chain_forest(5)
    with pytest.raises(UnknownVertex):
        in_degree_profile(forest, [0, 77])


# -- lockstep chain models --------------------------------------------------------


def test_lattice_chain_model_rejects_bad_kernels():
    with pytest.raises(ConfigError):
        LatticeChainModel(renewal_jumps())
    with pytest.raises(CyclicComponent):
        LatticeChainModel(uniform_jumps([(-1,), (1,)]))


def test_lattice_chain_model_start_geometry():
    model = LatticeChainModel(uniform_jumps(nguyen_atoms(2)))
    assert model.default_starts(2) == ((0, 0), (2, 0))
    assert model.at_distance((0, 0), 3) == (6, 0)
    with pytest.raises(ConfigError):
        model.run([(0, 0), (1, -1)], 10, 10, 1)


def test_lattice_chain_model_rejects_wrong_dimension_starts():
    model = LatticeChainModel(uniform_jumps(nguyen_atoms(2)))
    with pytest.raises(BadDimension):
        model.at_distance((0,), 1)
    with pytest.raises(BadDimension):
        model.run([(0, 0, 0), (2, 0, 0)], 10, 10, 1)
    with pytest.raises(BadDimension):
        model.at_distance(0, 1)


def test_count_components_k1_exact():
    rep = count_components_probe(renewal_jumps(), 1, 100, 50, 0x28)
    assert rep.values == (1.0,)
    assert rep.half_widths == (0.0,)
    assert rep.truncation_fraction == 0.0


def test_count_components_same_start_merges_instantly():
    model = LatticeChainModel(uniform_jumps([(1,)]))
    rep = count_components_probe(model, 2, 10, 200, 0x29)
    assert rep.values == (0.0,)
    assert rep.truncation_fraction == 0.0


def test_count_components_nguyen_k2_rare():
    model = LatticeChainModel(uniform_jumps(nguyen_atoms(2)))
    rep = count_components_probe(model, 2, 4000, 300, 0x2A)
    assert rep.values[0] <= 0.15
    assert rep.trials == (300,)


def test_count_components_tree_k3_frequent():
    tree = regular_tree(3, 10)
    model = GraphChainModel(tree, starts=((0, 0), (1, 0), (2, 0)))
    rep = count_components_probe(model, 3, 1500, 250, 0x2B)
    assert rep.values[0] >= 0.2
    assert rep.half_widths[0] > 0.0


def test_count_components_argument_errors():
    with pytest.raises(ConfigError):
        count_components_probe(renewal_jumps(), 0, 10, 10, 1)
    model = LatticeChainModel(uniform_jumps(nguyen_atoms(2)))
    with pytest.raises(ConfigError):
        count_components_probe(model, 2, 10, 10, 1, starts=((0, 0),))


def test_connectivity_distance_zero_exact():
    model = LatticeChainModel(uniform_jumps(nguyen_atoms(2)))
    rep = connectivity_decay_probe(model, (0, 0), [0], 10, 10, 1)
    assert rep.values == (1.0,)
    assert rep.truncation_fraction == 0.0


def test_connectivity_nguyen_connected_regime():
    model = LatticeChainModel(uniform_jumps(nguyen_atoms(2)))
    rep = connectivity_decay_probe(model, (0, 0), [1, 2, 3], 250, 8000, 0x2C)
    assert all(v >= 0.85 for v in rep.values)
    assert rep.units == (1, 2, 3)


def test_connectivity_tree_decreasing():
    model = GraphChainModel(regular_tree(3, 8))
    rep = connectivity_decay_probe(model, (), [2, 4, 6], 800, 300, 0x2D)
    assert rep.values[0] > rep.values[1] > rep.values[2]


def test_graph_chain_model_names_bad_starts_and_distances():
    model = GraphChainModel(regular_tree(3, 2), starts=((0,), (1,)))
    with pytest.raises(UnknownVertex, match="7"):
        model.run([(0,), 7], 10, 2, seed=1)
    with pytest.raises(UnknownVertex, match="7"):
        model.at_distance(7, 1)
    with pytest.raises(ConfigError, match="no vertex at distance 5"):
        model.at_distance((), 5)
    with pytest.raises(ConfigError, match="only 2 starts"):
        model.default_starts(3)


def test_connectivity_rejects_negative_distance():
    model = LatticeChainModel(uniform_jumps(nguyen_atoms(2)))
    with pytest.raises(ConfigError):
        connectivity_decay_probe(model, (0, 0), [-1], 10, 10, 1)


# -- Green decay ----------------------------------------------------------------------


def test_green_table_matches_green_function():
    mu = renewal_jumps()
    targets = [(0,), (3,), (7,), (12,), 5, (5,)]
    table = green_table(mu, targets)
    for y in targets:
        assert table[y] == green_function(mu, y).value
    mu2 = uniform_jumps(nguyen_atoms(2))
    targets2 = [(0, 0), (1, -1), (0, -4), (2, -2)]
    table2 = green_table(mu2, targets2)
    for y in targets2:
        assert table2[y] == green_function(mu2, y).value


def test_green_table_rejects_cycling_kernel():
    with pytest.raises(CyclicComponent):
        green_table(uniform_jumps([(-1,), (1,)]), [(0,)])


def test_one_endedness_delta_one_exact():
    rep = one_endedness_probe(uniform_jumps([(1,)]), [5, 20], 50, 0x2E)
    assert rep.values == (1.0, 1.0)
    assert rep.half_widths == (0.0, 0.0)


def test_one_endedness_renewal_two_thirds():
    rep = one_endedness_probe(renewal_jumps(), [50, 200], 1500, 0x2F)
    for v, h in zip(rep.values, rep.half_widths):
        assert abs(v - 2 / 3) <= h + 1e-9


def test_one_endedness_nguyen_decreasing():
    """Only the n-th power reaches level -n, so E[g(0, X_n)] is the
    collision probability of two n-step walks: binom(2n, n) / 4^n."""
    rep = one_endedness_probe(uniform_jumps(nguyen_atoms(2)), [10, 60], 800, 0x30)
    assert rep.values[0] > rep.values[1]
    for n, v, h in zip((10, 60), rep.values, rep.half_widths):
        exact = Fraction(math.comb(2 * n, n), 4**n)
        assert abs(v - float(exact)) <= h


def test_one_endedness_deterministic():
    a = one_endedness_probe(renewal_jumps(), [30], 200, 0x31)
    b = one_endedness_probe(renewal_jumps(), [30], 200, 0x31)
    assert a.values == b.values and a.half_widths == b.half_widths


# -- level-set bijection -----------------------------------------------------------


def test_allocation_singleton_identity():
    matching, unmatched = right_stable_allocation([5], [3], {5: 3})
    assert matching == {5: 3}
    assert unmatched == []


def test_allocation_distinct_parents_crossed():
    matching, unmatched = right_stable_allocation(
        ["c0", "c1"], ["p0", "p1"], {"c0": "p0", "c1": "p1"}
    )
    assert matching == {"c0": "p1", "c1": "p0"}
    assert unmatched == []
    # children out of parent order violate the precondition
    with pytest.raises(ConfigError):
        right_stable_allocation(
            ["c1", "c0"], ["p0", "p1"], {"c0": "p0", "c1": "p1"}
        )


def test_allocation_sibling_pair_splits():
    matching, unmatched = right_stable_allocation(
        ["c0", "c1"], ["p0", "p1"], {"c0": "p0", "c1": "p0"}
    )
    assert matching == {"c0": "p0", "c1": "p1"}
    assert unmatched == []
    matching, unmatched = right_stable_allocation(
        ["c1", "c0"], ["p0", "p1"], {"c0": "p0", "c1": "p0"}
    )
    assert matching == {"c1": "p0", "c0": "p1"}
    assert unmatched == []


def test_allocation_overloaded_row_is_surfaced():
    matching, unmatched = right_stable_allocation(
        ["a", "b", "c"], ["p"], {"a": "p", "b": "p", "c": "p"}
    )
    assert len(matching) + len(unmatched) == 3
    assert len(matching) <= 1


def test_bijection_delta_chain_is_jump():
    forest = delta_chain_forest(12)
    out = level_set_bijection(forest, 0x32)
    assert out.unmatched == frozenset()
    assert out.matching == {v: v + 1 for v in range(11)}


def test_bijection_hand_block_perfect():
    sibling = build_forest([0, 2, 3, 4, 5], {4: 2, 5: 2, 2: 0, 3: 0}, interior=[4, 5])
    for seed in range(4):
        out = level_set_bijection(sibling, seed)
        assert out.unmatched == frozenset()
        assert sorted(out.matching) == [4, 5]
        assert sorted(out.matching.values()) == [2, 3]
    distinct = build_forest([0, 2, 3, 4, 5], {4: 2, 5: 3, 2: 0, 3: 0}, interior=[4, 5])
    out = level_set_bijection(distinct, 0x33)
    assert out.unmatched == frozenset()
    assert sorted(out.matching.values()) == [2, 3]


def test_bijection_nguyen_torus_total():
    forest = nguyen_torus(nguyen_atoms(2), 0x34)
    out = level_set_bijection(forest, 0x35)
    assert out.unmatched == frozenset()
    assert len(out.matching) == 128
    for x, y in out.matching.items():
        assert y[1] == forest.jump[x][1]
    again = level_set_bijection(forest, 0x35)
    assert again.matching == out.matching


def test_bijection_variant_torus_invariants():
    forest = nguyen_torus(variant_atoms(), 0x36)
    out = level_set_bijection(forest, 0x37)
    domain = {v for v in forest.interior if v in forest.jump}
    assert set(out.matching) | set(out.unmatched) == domain
    assert not set(out.matching) & set(out.unmatched)
    for x, y in out.matching.items():
        assert y[1] == forest.jump[x][1]
    again = level_set_bijection(forest, 0x37)
    assert again.matching == out.matching
    assert again.unmatched == out.unmatched


def test_bijection_plain_window_lands_in_level_set():
    forest = nguyen_model(2, [(-8, 8), (-8, 8)], 0x38)
    out = level_set_bijection(forest, 0x39)
    picked = sorted(out.matching.items(), key=repr)[:12]
    assert picked
    for x, y in picked:
        members, _ = level_set(forest, forest.jump[x], 40)
        assert y in members


def test_bijection_cycle_raises():
    looped = build_forest([0, 1], {0: 1, 1: 0})
    with pytest.raises(CyclicComponent):
        level_set_bijection(looped, 1)
    flat_cycle = build_forest(
        [(0, 0), (1, 0)],
        {(0, 0): (1, 0), (1, 0): (0, 0)},
        dimension=2,
        metadata={"wrap": (2, 1), "box": ((0, 1), (0, 0))},
    )
    with pytest.raises(CyclicComponent):
        level_set_bijection(flat_cycle, 1)


# -- canopy negative control -----------------------------------------------------


def test_canopy_demo_invariant_detects_levels():
    rep = canopy_distinguishability_demo(3, 0x3A)
    assert rep.details["all_constant"] is True
    assert rep.details["distinct_count"] >= 3
    assert list(rep.units) == sorted(rep.units)


def test_canopy_demo_depth_one_trivial():
    rep = canopy_distinguishability_demo(1, 0x3B)
    assert rep.details["all_constant"] is True
    assert rep.details["distinct_count"] >= 1


# -- report plumbing ------------------------------------------------------------------


def test_probe_report_validation():
    with pytest.raises(ConfigError):
        ProbeReport("p", (1, 2), (0.5,), (0.0, 0.0), (10, 10), 0.0)
    with pytest.raises(ConfigError):
        ProbeReport("p", (1,), (0.5,), (0.0,), (10,), 1.5)


def test_probe_csv_and_json_shapes():
    rep = ProbeReport(
        probe="demo",
        units=(1, 2),
        values=(0.5, (0.25, 0.75)),
        half_widths=(0.01, 0.02),
        trials=(100, 100),
        truncation_fraction=0.0,
        details={"b": 2, "a": 1},
    )
    csv = probe_csv(rep)
    lines = csv.strip().split("\n")
    assert lines[0] == "unit,value,half_width,trials"
    assert len(lines) == 3
    assert "0.25 0.75" in lines[2]
    payload = json.loads(probe_json(rep))
    assert payload["probe"] == "demo"
    assert payload["estimates"]["2"] == [0.25, 0.75]
    reordered = ProbeReport(
        probe="demo",
        units=(1, 2),
        values=(0.5, (0.25, 0.75)),
        half_widths=(0.01, 0.02),
        trials=(100, 100),
        truncation_fraction=0.0,
        details={"a": 1, "b": 2},
    )
    assert probe_json(rep) == probe_json(reordered)


# -- argument checks -------------------------------------------------------------------


RENEWAL = uniform_jumps([(1,), (2,)])


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: count_components_probe(RENEWAL, 2, 50, 0, 1), "trials",
                 id="count-components"),
    pytest.param(lambda: count_components_probe(RENEWAL, 1, 50, 0, 1), "trials",
                 id="count-components-k1"),
    pytest.param(lambda: connectivity_decay_probe(RENEWAL, 0, [1], 0, 50, 1), "trials",
                 id="connectivity-decay"),
    pytest.param(lambda: one_endedness_probe(RENEWAL, [3], 0, 1), "trials",
                 id="one-endedness"),
    pytest.param(lambda: path_collision_estimate(RENEWAL, 0, 1, 50, 0, 1), "trials",
                 id="path-collision"),
    pytest.param(lambda: in_degree_profile(build_forest([0, 1], [(0, 1)]), []), "region",
                 id="in-degree-empty-region"),
])
def test_empty_averages_name_the_argument(call, name):
    # each of these divided by zero: no trial, or no vertex in the region
    with pytest.raises(ConfigError, match=name):
        call()
