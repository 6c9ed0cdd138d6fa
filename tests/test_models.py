"""Model sampler checks: support, drift direction, frequency bands, the
voter partition against an exact absorption oracle, and the canopy
invariant."""

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import cycle, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtforest.errors import (
    BadDimension,
    BadGraph,
    ConfigError,
    DetailedBalanceViolated,
    MalformedJump,
    NotConnected,
    TooLarge,
)
from cmtforest.forest import EXIT, build_forest, components, dump_forest, level_set
from cmtforest.graphs import (
    FiniteGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    regular_tree,
    torus_graph,
)
from cmtforest import models
from cmtforest.lattice import (
    atom_cdf,
    atom_index,
    check_weak_aperiodicity,
    even_sublattice,
    uniform_jumps,
)
from cmtforest.models import (
    _ROLE_CANOPY,
    _ROLE_SPACE_TIME,
    _ROLE_VOTER,
    SpaceTimeGraph,
    _stochastic_rows,
    canopy_cmt,
    coalescing_mc,
    coalescing_srw,
    nguyen_atoms,
    nguyen_model,
    nguyen_variant,
    renewal_model,
    variant_atoms,
    voter_stationary,
)
from cmtforest.seeds import derive_seed, rng_for


def increments(fw):
    return [tuple(t - s for s, t in zip(src, dst)) for src, dst in fw.jump.items()]


def interior_increments(fw):
    return [
        tuple(t - s for s, t in zip(src, fw.jump[src]))
        for src in sorted(fw.interior)
    ]


def freq_band(count, n, p, sigmas=4):
    return abs(count / n - p) <= sigmas * math.sqrt(p * (1 - p) / n)


# -- graphs -------------------------------------------------------------------


def test_graph_builders_shapes():
    k4 = complete_graph(4)
    assert all(k4.degree(v) == 3 for v in k4.vertices)
    assert k4.edge_count() == 6
    c5 = cycle_graph(5)
    assert all(c5.degree(v) == 2 for v in c5.vertices)
    p4 = path_graph(4)
    assert sorted(p4.degree(v) for v in p4.vertices) == [1, 1, 2, 2]
    t = torus_graph(2)
    assert t.degree((0,)) == 2  # doubled edge on the two-cycle
    tree = regular_tree(3, 2)
    assert len(tree.vertices) == 1 + 3 + 6
    assert tree.degree(()) == 3
    assert all(g.is_connected() for g in (k4, c5, p4, t, tree))


def test_graph_validation():
    with pytest.raises(BadGraph):
        FiniteGraph({0: (1,), 1: ()})  # asymmetric
    with pytest.raises(BadGraph):
        FiniteGraph({0: (2,), 1: ()})  # unknown endpoint
    with pytest.raises(BadGraph):
        cycle_graph(2)
    loop = FiniteGraph({0: (0,)})
    assert loop.degree(0) == 1 and loop.is_connected()


@pytest.mark.parametrize("adjacency, named", [
    ({0: (2,), 1: ()}, "edge endpoint 2 is not a vertex"),
    ({0: (1,), 1: ()}, "asymmetric multiplicity between 0 and 1"),
    ({0: (1, 1), 1: (0,)}, "asymmetric multiplicity between 0 and 1"),
    ({0: (1,), 1: (0, 0)}, "asymmetric multiplicity between 0 and 1"),
])
def test_graph_validation_names_the_fault(adjacency, named):
    with pytest.raises(BadGraph, match=f"^{named}$"):
        FiniteGraph(adjacency)


def test_graph_with_two_faults_names_the_first_in_vertex_order():
    # vertex 0's asymmetric edge comes before vertex 2's unknown endpoint
    with pytest.raises(BadGraph, match="^asymmetric multiplicity between 0 and 1$"):
        FiniteGraph({0: (1,), 1: (), 2: (5,)})


def test_graph_facts_components_and_self_loops():
    split = FiniteGraph({0: (1,), 1: (0,), 2: (2, 3), 3: (2, 4, 4), 4: (3, 3, 4)})
    assert split.component == {0: 0, 1: 0, 2: 1, 3: 1, 4: 1}
    assert not split.is_connected()
    assert split.self_loops == (2, 4)
    assert split.component is split.component  # computed once per graph
    k4 = complete_graph(4)
    assert k4.is_connected() and set(k4.component.values()) == {0}
    assert k4.self_loops == ()


# -- lattice models -----------------------------------------------------------


def test_nguyen_support_and_drift():
    fw = nguyen_model(2, [(-12, 12), (-12, 12)], seed=5)
    assert set(increments(fw)) <= {(1, -1), (-1, -1)}
    assert all(sum(v) % 2 == 0 for v in fw.vertices)
    with pytest.raises(BadDimension):
        nguyen_model(1, [(-5, 5)], seed=0)


def test_nguyen_atoms_shape():
    atoms = nguyen_atoms(4)
    assert len(atoms) == 6
    assert all(a[-1] == -1 and sum(map(abs, a)) == 2 for a in atoms)


def test_nguyen_sideways_frequency():
    fw = nguyen_model(2, [(-160, 160), (-160, 160)], seed=17)
    inc = interior_increments(fw)
    lefts = sum(1 for u in inc if u == (-1, -1))
    assert freq_band(lefts, len(inc), 0.5)


def test_variant_support_and_frequencies():
    fw = nguyen_variant([(-120, 120), (-120, 120)], seed=23)
    inc = interior_increments(fw)
    assert set(inc) == set(variant_atoms())
    for atom in variant_atoms():
        n = sum(1 for u in inc if u == atom)
        assert freq_band(n, len(inc), 1 / 3)
    rep = check_weak_aperiodicity(uniform_jumps(variant_atoms()), even_sublattice(2))
    assert rep.holds


def test_renewal_unit_step_is_a_chain():
    fw = renewal_model(uniform_jumps([(1,)]), (0, 9), seed=1)
    assert fw.jump == {x: x + 1 for x in range(9)}
    assert fw.exits == {9}


def test_renewal_determinism_and_histogram():
    jd = uniform_jumps([(1,), (2,)])
    a = renewal_model(jd, (0, 100000), seed=7)
    b = renewal_model(jd, (0, 100000), seed=7)
    assert dump_forest(a) == dump_forest(b)
    inc = [a.jump[x] - x for x in sorted(a.interior)]
    ones = sum(1 for u in inc if u == 1)
    assert set(inc) == {1, 2}
    assert freq_band(ones, len(inc), 0.5)


def test_renewal_rejects_bad_steps():
    with pytest.raises(MalformedJump):
        renewal_model(uniform_jumps([(0,), (1,)]), (0, 5), seed=0)
    with pytest.raises(BadDimension):
        renewal_model(uniform_jumps([(1, 0)]), (0, 5), seed=0)


# -- coalescing walks ---------------------------------------------------------


def test_srw_self_loop_gives_time_chain():
    stg = SpaceTimeGraph(FiniteGraph({0: (0,)}), (0, 6))
    fw = coalescing_srw(stg, seed=3)
    assert fw.jump == {(0, t): (0, t + 1) for t in range(6)}
    assert len(components(fw)) == 1


def test_srw_edge_swaps_deterministically():
    stg = SpaceTimeGraph(FiniteGraph({0: (1,), 1: (0,)}), (0, 5))
    fw = coalescing_srw(stg, seed=11)
    for (x, t), (y, s) in fw.jump.items():
        assert s == t + 1 and y == 1 - x


def test_srw_time_increases_and_top_slice_dangles():
    stg = SpaceTimeGraph(cycle_graph(6), (-2, 4))
    fw = coalescing_srw(stg, seed=9)
    for (x, t), (y, s) in fw.jump.items():
        assert s == t + 1
    top = [v for v in fw.vertices if v[1] == 4]
    assert all(v not in fw.jump and v not in fw.exits for v in top)
    assert all(v not in fw.interior for v in top)


def test_srw_rejects_isolated_vertex():
    with pytest.raises(BadGraph):
        coalescing_srw(SpaceTimeGraph(FiniteGraph({0: ()}), (0, 3)), seed=0)
    with pytest.raises(NotConnected):
        SpaceTimeGraph(FiniteGraph({0: (), 1: (1,)}), (0, 3))


def test_srw_bipartite_parity_constant_on_level_sets():
    # on an even cycle, (side of the bipartition + time) mod 2 never mixes
    stg = SpaceTimeGraph(cycle_graph(4), (0, 8))
    fw = coalescing_srw(stg, seed=21)
    for v in sorted(fw.vertices):
        members, _ = level_set(fw, v, 4)
        marks = {(x + t) % 2 for x, t in members}
        assert len(marks) == 1


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("base", [cycle_graph(7), torus_graph(3, 2)], ids=["cycle", "torus"])
@pytest.mark.parametrize("sampler", ["srw", "mc"])
def test_space_time_interior_is_every_vertex_below_the_top(sampler, base, seed):
    space_time = SpaceTimeGraph(base, (-2, 3))
    if sampler == "srw":
        fw = coalescing_srw(space_time, seed)
    else:  # the uniform-neighbor kernel of a regular graph is symmetric
        kernel = {x: {y: ns.count(y) / len(ns) for y in ns} for x, ns in base.adjacency.items()}
        fw = coalescing_mc(space_time, kernel, dict.fromkeys(base.vertices, 1.0), seed)
    assert fw.is_interior.tolist() == [t < 3 for _, t in fw.verts]


def test_mc_identity_kernel_gives_vertical_chains():
    base = cycle_graph(5)
    stg = SpaceTimeGraph(base, (0, 7))
    kernel = {x: {x: 1.0} for x in base.vertices}
    fw = coalescing_mc(stg, kernel, {x: 1.0 for x in base.vertices}, seed=2)
    assert all(fw.jump[(x, t)] == (x, t + 1) for x, t in fw.jump)
    assert len(components(fw)) == 5


def test_mc_detailed_balance_gate():
    base = FiniteGraph({0: (1,), 1: (0,)})
    stg = SpaceTimeGraph(base, (0, 3))
    lazy = {0: {0: 0.5, 1: 0.5}, 1: {0: 0.5, 1: 0.5}}
    coalescing_mc(stg, lazy, {0: 1.0, 1: 1.0}, seed=4)  # accepted
    skewed = {0: {0: 0.2, 1: 0.8}, 1: {0: 0.5, 1: 0.5}}
    with pytest.raises(DetailedBalanceViolated):
        coalescing_mc(stg, skewed, {0: 1.0, 1: 1.0}, seed=4)
    with pytest.raises(MalformedJump):
        coalescing_mc(stg, {0: {0: 0.7}, 1: {1: 1.0}}, {0: 1, 1: 1}, seed=4)


def test_mc_names_a_base_vertex_without_a_weight():
    # a bare KeyError before the weights were checked
    stg = SpaceTimeGraph(cycle_graph(3), (0, 2))
    kernel = {0: {1: 1.0}, 1: {0: 1.0}, 2: {2: 1.0}}
    with pytest.raises(ConfigError, match="^base_weights has no weight for base vertex 2$"):
        coalescing_mc(stg, kernel, {0: 1.0, 1: 1.0}, 1)


@pytest.mark.parametrize("base", [{0: (1,), 1: (0,)}, None, cycle_graph])
def test_a_base_that_is_not_a_finite_graph_is_named(base):
    # a bare AttributeError before the base was checked
    with pytest.raises(ConfigError, match="^base must be a FiniteGraph, got "):
        SpaceTimeGraph(base, (0, 1))
    with pytest.raises(ConfigError, match="^base must be a FiniteGraph, got "):
        voter_stationary(base, 2, 1)


def test_mc_per_site_law_matches_kernel():
    base = FiniteGraph({0: (1,), 1: (0,)})
    stg = SpaceTimeGraph(base, (0, 4000))
    lazy = {0: {0: 0.5, 1: 0.5}, 1: {0: 0.5, 1: 0.5}}
    fw = coalescing_mc(stg, lazy, {0: 1.0, 1: 1.0}, seed=31)
    for site in (0, 1):
        stays = sum(
            1 for t in range(4000) if fw.jump[(site, t)][0] == site
        )
        assert freq_band(stays, 4000, 0.5)


def test_mc_matches_srw_distribution_shape():
    # uniform kernel on a 3-cycle passes balance with constant weights
    base = cycle_graph(3)
    stg = SpaceTimeGraph(base, (0, 5))
    kernel = {x: {(x - 1) % 3: 0.5, (x + 1) % 3: 0.5} for x in base.vertices}
    fw = coalescing_mc(stg, kernel, {x: 2.0 for x in base.vertices}, seed=6)
    for (x, t), (y, s) in fw.jump.items():
        assert s == t + 1 and y in ((x - 1) % 3, (x + 1) % 3)


# The space-time samplers and the voter model as they were: one closure call
# per vertex, reading base.neighbors and one scalar draw each. The samplers
# now draw a whole window at once, which must read the same stream.


def oracle_space_time_window(space_time, seed, name, draw):
    lo, hi = space_time.time_range
    rng = models.rng_for(seed, _ROLE_SPACE_TIME)  # through models, so a patched stream reaches it
    pairs = [((x, t), (draw(rng, x), t + 1))
             for t in range(lo, hi) for x in space_time.base.vertices]
    return build_forest(
        space_time.vertices(),
        pairs,
        dimension=2,
        metadata={"model": name, "seed": int(seed), "time_range": (lo, hi)},
    )


def oracle_coalescing_srw(space_time, seed):
    base = space_time.base

    def draw(rng, x):
        ns = base.neighbors(x)
        return ns[int(rng.integers(len(ns)))]

    return oracle_space_time_window(space_time, seed, "coalescing-srw", draw)


def oracle_coalescing_mc(space_time, kernel, seed):
    rows = _stochastic_rows(space_time.base, kernel)
    cdf = {x: atom_cdf([q for _, q in row]).tolist() for x, row in rows.items()}

    def draw(rng, x):
        return rows[x][bisect_right(cdf[x], rng.random())][0]

    return oracle_space_time_window(space_time, seed, "coalescing-mc", draw)


def oracle_voter_stationary(base, lookback, seed):
    verts = list(base.vertices)
    pos = {x: x for x in verts}
    for s in range(lookback):
        rng = rng_for(derive_seed(seed, s), _ROLE_VOTER)
        move = {}
        for x in verts:
            ns = base.neighbors(x)
            if not ns or rng.random() < 0.5:
                move[x] = x
            else:
                move[x] = ns[int(rng.integers(len(ns)))]
        pos = {x: move[pos[x]] for x in verts}
    classes = {}
    for x in verts:
        classes.setdefault(pos[x], []).append(x)
    return sorted(sorted(c) for c in classes.values())


def assert_same_window(got, want):
    for name in ("coords", "succ", "is_exit", "is_interior", "src", "pre", "ptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert list(got.jump.items()) == list(want.jump.items())
    assert dump_forest(got) == dump_forest(want)
    assert (got.interior, got.exits, got.metadata) == (want.interior, want.exits, want.metadata)


# The target search coalescing_mc had before it drew with atom_cdf: a running
# float sum per draw, with the last target when u passes the rounded total.


def cumulative_loop(weights, u):
    acc = 0.0
    for i, q in enumerate(weights):
        acc += q
        if u < acc:
            return i
    return len(weights) - 1


@pytest.mark.parametrize("weights", [[0.1] * 10, [0.5, 0.5], [1 / 3] * 3, [0.7, 0.2, 0.1],
                                     [1e-17, 1.0], [1.0]])
def test_cdf_search_equals_the_cumulative_loop_at_its_edges(weights):
    cdf = atom_cdf(weights)
    edges = [0.0, float(np.nextafter(1.0, 0.0))]
    for acc in np.cumsum(weights).tolist():
        edges += [acc, float(np.nextafter(acc, 0.0)), float(np.nextafter(acc, 2.0))]
    edges = [u for u in edges if u < 1.0]
    for u in edges:
        assert np.searchsorted(cdf, u, side="right") == cumulative_loop(weights, u), u
        assert bisect_right(cdf.tolist(), u) == cumulative_loop(weights, u), u
    # atom_index searches these few draws and counts thresholds over many
    for us in (edges, edges * (1024 * len(weights) // len(edges) + 1)):
        assert atom_index(cdf, us).tolist() == [cumulative_loop(weights, u) for u in us]
    if weights == [0.1] * 10:  # the sum rounds to 1 - 2**-53: the loop's fallback
        assert cumulative_loop(weights, float(np.nextafter(1.0, 0.0))) == 9


class EdgeDraws:
    """Stands in for the space-time generator: random() and random(size) step
    through us in draw order."""

    def __init__(self, us):
        self.us = cycle(us)

    def random(self, size=None):
        if size is None:
            return next(self.us)
        return np.fromiter(self.us, dtype=float, count=math.prod(size)).reshape(size)


def test_mc_draws_on_the_cdf_edges_equal_the_cumulative_loop(monkeypatch):
    edges = [0.0, float(np.nextafter(1.0, 0.0))]
    for acc in np.cumsum([0.1] * 10).tolist():
        edges += [acc, float(np.nextafter(acc, 0.0)), float(np.nextafter(acc, 2.0))]
    monkeypatch.setattr(models, "rng_for", lambda *keys: EdgeDraws([u for u in edges if u < 1]))
    space_time = SpaceTimeGraph(complete_graph(10), (0, 9))
    kernel = {x: {y: 0.1 for y in range(10)} for x in range(10)}
    fw = coalescing_mc(space_time, kernel, {x: 1.0 for x in range(10)}, 5)
    assert dump_forest(fw) == dump_forest(oracle_coalescing_mc(space_time, kernel, 5))


# parallel edges and a self-loop: 0 and 1 are joined twice, 1 lists itself once
MULTIGRAPH = FiniteGraph({0: (1, 1, 2), 1: (0, 0, 1), 2: (0,)})

# degrees 1 (tree leaves, a self-loop) to 6; degrees 3, 5 and 6 reject some words
GATE_GRAPHS = [cycle_graph(3), cycle_graph(6), path_graph(2), path_graph(5), torus_graph(2, 2),
               torus_graph(3, 2), complete_graph(4), complete_graph(6), complete_graph(7),
               regular_tree(3, 2), regular_tree(2, 3), MULTIGRAPH, FiniteGraph({0: (0,)})]
SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.integers(-2**63, -1))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.sampled_from(GATE_GRAPHS), st.integers(-3, 3), st.integers(0, 6), SEEDS)
def test_srw_and_voter_draws_equal_the_per_vertex_oracles(base, lo, slices, seed):
    # slices 0 is a single-slice window, which draws nothing
    space_time = SpaceTimeGraph(base, (lo, lo + slices))
    assert_same_window(coalescing_srw(space_time, seed), oracle_coalescing_srw(space_time, seed))
    assert voter_stationary(base, slices, seed) == oracle_voter_stationary(base, slices, seed)


@st.composite
def reversible_chains(draw):
    """(space_time, kernel, weights): symmetric conductances c(x, y) (self
    loops and zeros included) on a small base graph, the kernel c(x, y) /
    C(x) and its stationary weights C(x); or the uniform kernel on K10 with
    self loops, whose ten 0.1 weights sum below 1."""
    if draw(st.booleans()):
        base = complete_graph(10)
        kernel = {x: {y: 0.1 for y in range(10)} for x in range(10)}
        weights = {x: 1.0 for x in range(10)}
    else:
        base = draw(st.sampled_from([cycle_graph(3), cycle_graph(5), path_graph(4),
                                     complete_graph(4), torus_graph(3, 2), regular_tree(3, 2),
                                     MULTIGRAPH]))
        vs = list(base.vertices)
        cond = {}
        for i, x in enumerate(vs):
            for y in vs[i:]:
                c = draw(st.sampled_from([0, 0, 1, 3, 0.1, 7]))
                if c:
                    cond[x, y] = cond[y, x] = c
        total = {x: sum(c for (a, _), c in cond.items() if a == x) for x in vs}
        for x in vs:
            if not total[x]:
                cond[x, x] = total[x] = 1
        kernel = {x: {} for x in vs}
        for (x, y), c in cond.items():
            kernel[x][y] = c / total[x]
        weights = {x: float(total[x]) for x in vs}
    lo = draw(st.integers(-3, 3))
    return SpaceTimeGraph(base, (lo, lo + draw(st.integers(0, 6)))), kernel, weights


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(reversible_chains(), SEEDS)
def test_mc_window_draws_equal_the_per_vertex_oracle(chain, seed):
    space_time, kernel, weights = chain
    assert_same_window(coalescing_mc(space_time, kernel, weights, seed),
                       oracle_coalescing_mc(space_time, kernel, seed))


@pytest.mark.parametrize("seed", [1, 2])
def test_mc_long_window_counts_equal_the_per_vertex_oracle(seed):
    # 2,100 draws per row reach atom_index's counting branch for three atoms
    space_time = SpaceTimeGraph(cycle_graph(3), (0, 2100))
    kernel = {x: {(x - 1) % 3: 0.25, x: 0.5, (x + 1) % 3: 0.25} for x in range(3)}
    assert_same_window(coalescing_mc(space_time, kernel, dict.fromkeys(range(3), 1.0), seed),
                       oracle_coalescing_mc(space_time, kernel, seed))


# -- voter model ----------------------------------------------------------------


def test_voter_zero_lookback_is_singletons():
    part = voter_stationary(complete_graph(4), 0, seed=0)
    assert part == [[0], [1], [2], [3]]


def test_voter_negative_lookback_is_named():
    with pytest.raises(ConfigError, match="^lookback must be an integer >= 0"):
        voter_stationary(complete_graph(4), -1, seed=0)


def test_voter_partitions_refine_with_lookback():
    base = cycle_graph(6)
    for seed in (1, 2, 3):
        for t in range(0, 12):
            finer = voter_stationary(base, t, seed=seed)
            coarser = voter_stationary(base, t + 1, seed=seed)
            for cls in finer:
                assert any(set(cls) <= set(big) for big in coarser)


def k3_consensus_probability(steps):
    """Exact chance that three coalescing lazy walks on the triangle have
    merged within the given number of steps. The walk count is the only
    state needed: each group stays put with probability 1/2 or moves to a
    uniform other site, independently across groups."""
    half, quarter = Fraction(1, 2), Fraction(1, 4)

    def step_law(k):
        sites = list(range(k))  # occupied sites, distinct by construction
        law = {}
        for targets in product(range(3), repeat=k):
            p = Fraction(1)
            for g, tgt in enumerate(targets):
                p *= half if tgt == sites[g] else quarter
            law[targets] = law.get(targets, 0) + p
        out = {}
        for targets, p in law.items():
            out[len(set(targets))] = out.get(len(set(targets)), Fraction(0)) + p
        return out

    dist = {3: Fraction(1)}
    for _ in range(steps):
        nxt = {}
        for k, p in dist.items():
            if k == 1:
                nxt[1] = nxt.get(1, Fraction(0)) + p
                continue
            for k2, q in step_law(k).items():
                nxt[k2] = nxt.get(k2, Fraction(0)) + p * q
        dist = nxt
    return dist.get(1, Fraction(0))


def test_voter_consensus_matches_absorption_oracle():
    trials, steps = 600, 6
    exact = float(k3_consensus_probability(steps))
    hits = 0
    for t in range(trials):
        part = voter_stationary(complete_graph(3), steps, seed=9000 + t)
        hits += len(part) == 1
    assert abs(hits / trials - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials)


# -- canopy control ---------------------------------------------------------------


def test_canopy_layer_sizes():
    fw, _ = canopy_cmt(3, seed=0)
    sizes = {}
    for lvl, _j in fw.vertices:
        sizes[lvl] = sizes.get(lvl, 0) + 1
    assert sizes == {0: 8, 1: 4, 2: 2, 3: 1}


def test_canopy_jump_support():
    fw, _ = canopy_cmt(5, seed=8)
    for (lvl, j), (plvl, pj) in fw.jump.items():
        assert (plvl, pj) in ((lvl + 1, j // 2), (lvl + 2, j // 4))
    assert fw.exits == {(5, 0)}
    assert all(v[0] <= 3 for v in fw.interior)


def test_canopy_invariant_constant_on_level_sets():
    for seed in range(6):
        fw, inv = canopy_cmt(5, seed=seed)
        for v in sorted(fw.vertices):
            members, _ = level_set(fw, v, 5)
            assert len({inv[w] for w in members}) == 1


def test_canopy_invariant_separates_levels_somewhere():
    # the invariant must distinguish: distinct values actually occur
    fw, inv = canopy_cmt(4, seed=3)
    assert len(set(inv.values())) > 1


def test_canopy_determinism():
    a, ia = canopy_cmt(6, seed=42)
    b, ib = canopy_cmt(6, seed=42)
    assert dump_forest(a) == dump_forest(b)
    assert ia == ib


def oracle_canopy_cmt(depth, seed):
    """canopy_cmt as it was: vertex tuples, one pair and one scalar draw per
    vertex, and the pair form of build_forest."""
    if depth < 1:
        raise BadDimension("depth must be at least 1")
    rng = rng_for(seed, _ROLE_CANOPY)
    vertices = [
        (lvl, j) for lvl in range(depth + 1) for j in range(2 ** (depth - lvl))
    ]
    pairs = []
    for lvl, j in vertices:
        if lvl == depth:
            pairs.append(((lvl, j), EXIT))
            continue
        wants_double = rng.random() < 2.0 ** (-lvl - 1)
        if wants_double and lvl + 2 <= depth:
            pairs.append(((lvl, j), (lvl + 2, j // 4)))
        else:
            pairs.append(((lvl, j), (lvl + 1, j // 2)))
    fw = build_forest(
        vertices,
        pairs,
        interior=[v for v in vertices if v[0] <= depth - 2],
        dimension=2,
        metadata={"model": "canopy", "seed": int(seed), "depth": int(depth)},
    )
    invariant = dict(zip(fw.verts, (depth - fw.depth).tolist()))
    return fw, invariant


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(1, 10), st.one_of(st.integers(0, 2**64 - 1), st.integers(-2**63, -1)))
def test_canopy_rows_equal_per_vertex_oracle(depth, seed):
    got, got_inv = canopy_cmt(depth, seed)
    want, want_inv = oracle_canopy_cmt(depth, seed)
    assert_same_window(got, want)
    assert list(got_inv.items()) == list(want_inv.items())
    assert got.dimension == want.dimension


@pytest.mark.parametrize("depth, error, match", [
    (2.5, ConfigError, "^depth must be an integer, got 2.5$"),
    (True, ConfigError, "^depth must be an integer, got True$"),
    ("3", ConfigError, "^depth must be an integer, got '3'$"),
    (0, BadDimension, "^depth must be at least 1$"),
    (62, TooLarge, "^depth 62 "),
])
def test_canopy_depth_is_checked_by_name(depth, error, match):
    with pytest.raises(error, match=match):
        canopy_cmt(depth, 1)
