"""The block-stepped chain runs against the per-step lockstep loops they
replaced, which are kept here as the oracles, and the frozen probe values
that pin the chain models' random-stream contract.

The oracles advance every walker one step per rng.random((trials, k)) call,
move each walker to its group leader's position and union the groups on
equal positions pair by pair. The block-stepped runs draw b steps per call,
follow the walkers' independent paths and resolve merges once per block;
their labels must equal the oracles' exactly. Suites are deterministic (derandomize=True)
with a bounded number of examples; the block cap is also patched down so
that budgets cross several block boundaries cheaply.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtforest import analysis
from cmtforest.analysis import (
    GraphChainModel,
    LatticeChainModel,
    ProbeReport,
    connectivity_decay_probe,
    count_components_probe,
)
from cmtforest.errors import BadGraph
from cmtforest.graphs import FiniteGraph, regular_tree
from cmtforest.lattice import JumpDistribution, atom_cdf, uniform_jumps
from cmtforest.models import nguyen_atoms
from cmtforest.seeds import rng_for

SUITE = settings(derandomize=True, max_examples=300, deadline=None, database=None)

CAP = analysis._BLOCK_WALKER_STEPS


# -- oracles: the per-step loops the block-stepped runs replaced --------------------


def oracle_merge_meetings(pos, leader):
    """Union the groups of walkers standing on equal positions."""
    k = leader.shape[1]
    for i in range(k):
        for j in range(i + 1, k):
            eq = (pos[:, i] == pos[:, j]).all(axis=-1)
            if not eq.any():
                continue
            a, b = leader[:, i], leader[:, j]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            mask = eq[:, None] & (leader == hi[:, None])
            leader[mask] = np.broadcast_to(lo[:, None], leader.shape)[mask]


def oracle_lattice_run(jumps, starts, budget, trials, seed):
    atoms = np.array(jumps.atoms, dtype=np.int64)
    cum = atom_cdf(jumps.weights)
    k = len(starts)
    rng = rng_for(seed, analysis._ROLE_CHAINS)
    pos = np.tile(np.array(starts, dtype=np.int64), (trials, 1, 1))
    leader = np.tile(np.arange(k), (trials, 1))
    oracle_merge_meetings(pos, leader)
    for _ in range(budget):
        if np.all(leader == leader[:, :1]):
            break
        u = rng.random((trials, k))
        idx = np.searchsorted(cum, u, side="right")
        pos += atoms[idx]
        pos = np.take_along_axis(pos, leader[..., None], axis=1)
        oracle_merge_meetings(pos, leader)
    return leader


def oracle_graph_run(graph, starts, budget, trials, seed):
    verts = list(graph.vertices)
    index = {v: i for i, v in enumerate(verts)}
    degs = [graph.degree(v) for v in verts]
    nbr = np.zeros((len(verts), max(degs)), dtype=np.int64)
    for i, v in enumerate(verts):
        for j, u in enumerate(graph.neighbors(v)):
            nbr[i, j] = index[u]
    deg = np.array(degs, dtype=np.int64)
    k = len(starts)
    rng = rng_for(seed, analysis._ROLE_CHAINS)
    pos = np.tile(np.array([index[s] for s in starts], dtype=np.int64), (trials, 1))
    leader = np.tile(np.arange(k), (trials, 1))
    oracle_merge_meetings(pos[..., None], leader)
    for _ in range(budget):
        if np.all(leader == leader[:, :1]):
            break
        u = rng.random((trials, k))
        step = np.floor(u * deg[pos]).astype(np.int64)
        pos = nbr[pos, step]
        pos = np.take_along_axis(pos, leader, axis=1)
        oracle_merge_meetings(pos[..., None], leader)
    return leader


# -- random inputs ------------------------------------------------------------------


@contextmanager
def block_cap(cap):
    saved = analysis._BLOCK_WALKER_STEPS
    analysis._BLOCK_WALKER_STEPS = cap
    try:
        yield
    finally:
        analysis._BLOCK_WALKER_STEPS = saved


# Each example is built from one drawn seed with random.Random, which spreads
# the examples evenly over shapes; hypothesis's own draws favour the smallest
# values (one chain, budget 0, one start) so heavily that most examples would
# never reach a merge after time 0.
SEEDS = st.integers(0, 2**32 - 1)


def run_shape(rnd):
    """(k, trials, cap, budget): budgets 0, 1 and around the block length."""
    k = rnd.choice([1, 2, 2, 3, 3, 4, 5, 6])
    trials = rnd.choice([1, 2, 5, 13, 40])
    cap = rnd.choice([1, 7, 64, 500, CAP])
    b = max(1, cap // (trials * k))
    budget = rnd.choice([0, 1, 2, b - 1, b, b + 1, 2 * b + 1, 3 * b, 300])
    return k, trials, cap, min(max(budget, 0), 300)


def level_graded_kernel(rnd):
    """Atoms with first coordinate 1 (so every atom has level 1 under e_0),
    d = 1..3, 1..4 atoms, unequal weights. The other coordinates are
    sometimes scaled by 2^40, so that a block's bounding box can hold 2^63
    sites or more."""
    d = rnd.choice([1, 2, 2, 2, 3, 3, 3])
    scale = rnd.choice([1, 1, 1, 2**40])
    atoms = {(1, *(rnd.randint(-3, 3) * scale for _ in range(d - 1)))
             for _ in range(rnd.choice([1, 2, 3, 3, 4, 4]))}
    w = [rnd.randint(1, 9) for _ in atoms]
    return JumpDistribution(tuple(sorted(atoms)), tuple(Fraction(x, sum(w)) for x in w))


def lattice_starts(rnd, jumps, k):
    """k starts on one level: an offset plus integer combinations of atom
    differences, drawn from a small pool so that starts sometimes coincide."""
    diffs = [np.subtract(a, jumps.atoms[0]) for a in jumps.atoms[1:]]
    offset = np.array([rnd.randint(-5, 5) for _ in range(jumps.dimension)])
    pool = [tuple(int(c) for c in offset + sum(rnd.randint(-3, 3) * x for x in diffs))
            for _ in range(rnd.randint(2, k + 2))]
    return [rnd.choice(pool) for _ in range(k)]


def connected_graph(rnd):
    """A random spanning tree on 1..8 int vertices plus extra edges, which
    may be self-loops or parallel edges."""
    n = rnd.randint(1, 8)
    edges = [(i, rnd.randrange(i)) for i in range(1, n)]
    edges += [(rnd.randrange(n), rnd.randrange(n)) for _ in range(rnd.randint(0, 6))]
    if n == 1 and not edges:
        edges = [(0, 0)]
    adj = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        if a != b:
            adj[b].append(a)
    return FiniteGraph(adj)


# -- the block-stepped runs against the oracles -------------------------------------


@SUITE
@given(SEEDS)
def test_lattice_blocks_equal_per_step_loop(example):
    rnd = random.Random(example)
    jumps = level_graded_kernel(rnd)
    k, trials, cap, budget = run_shape(rnd)
    starts = lattice_starts(rnd, jumps, k)
    seed = rnd.getrandbits(32)
    with block_cap(cap):
        got = LatticeChainModel(jumps).run(starts, budget, trials, seed)
    np.testing.assert_array_equal(got, oracle_lattice_run(jumps, starts, budget, trials, seed))


@SUITE
@given(SEEDS)
def test_graph_blocks_equal_per_step_loop(example):
    rnd = random.Random(example)
    graph = connected_graph(rnd)
    k, trials, cap, budget = run_shape(rnd)
    starts = [rnd.choice(graph.vertices) for _ in range(k)]
    seed = rnd.getrandbits(32)
    with block_cap(cap):
        got = GraphChainModel(graph).run(starts, budget, trials, seed)
    np.testing.assert_array_equal(got, oracle_graph_run(graph, starts, budget, trials, seed))


def test_blocks_equal_per_step_loop_at_probe_size():
    # full-size block (several steps per block at trials * k = 1000 * 4)
    jumps = uniform_jumps(nguyen_atoms(3))
    model = LatticeChainModel(jumps)
    starts = list(model.default_starts(4))
    got = model.run(starts, 120, 1000, 0xB10C)
    np.testing.assert_array_equal(got, oracle_lattice_run(jumps, starts, 120, 1000, 0xB10C))
    tree = regular_tree(3, 5)
    starts = [(0,), (1, 0), (2, 1, 0), (0, 1)]
    got = GraphChainModel(tree).run(starts, 120, 1000, 0xB10C)
    np.testing.assert_array_equal(got, oracle_graph_run(tree, starts, 120, 1000, 0xB10C))


def test_huge_bounding_box_uses_point_ranks():
    # two axes spanning about 2^49 sites each: no int64 mixed-radix id
    big = 2**40
    jumps = uniform_jumps([(1, big, big), (1, -big, big), (1, big, -big), (1, 0, 0)])
    model = LatticeChainModel(jumps)
    starts = [(0, 0, 0), (0, 2 * big, 0), (0, 0, -2 * big), (0, big, -big)]
    got = model.run(starts, 200, 30, 7)
    np.testing.assert_array_equal(got, oracle_lattice_run(jumps, starts, 200, 30, 7))
    assert len(np.unique(got[:, 1:], axis=0)) > 1


def test_two_sites_meeting_at_one_time_both_merge():
    # walkers {0, 1} and {2, 3} start pairwise coincident: two sites meet at t = 0
    model = LatticeChainModel(uniform_jumps(nguyen_atoms(2)))
    got = model.run([(0, 0), (0, 0), (2, 0), (2, 0)], 0, 3, 1)
    assert got.tolist() == [[0, 0, 2, 2]] * 3


# -- isolated vertices --------------------------------------------------------------


def test_graph_chain_model_rejects_isolated_vertex():
    graph = FiniteGraph({0: (1,), 1: (0,), 2: ()})
    with pytest.raises(BadGraph, match="2"):
        GraphChainModel(graph, starts=(2, 1))


# -- the random-stream contract -----------------------------------------------------
# Values computed with the per-step loops; a change in draw order changes them.


NGUYEN2 = uniform_jumps(nguyen_atoms(2))


def test_count_components_stream_is_frozen():
    model = LatticeChainModel(NGUYEN2)
    assert count_components_probe(model, 3, 20, 64, 0x5EED) == ProbeReport(
        probe="count-components", units=(3,), values=(0.015625,),
        half_widths=(0.062009796353076345,), trials=(64,), truncation_fraction=0.46875,
        details={"k": 3, "budget": 20, "trials": 64, "seed": 24301})
    assert count_components_probe(model, 3, 300, 64, 0x5EED) == ProbeReport(
        probe="count-components", units=(3,), values=(0.0,), half_widths=(0.0,),
        trials=(64,), truncation_fraction=0.109375,
        details={"k": 3, "budget": 300, "trials": 64, "seed": 24301})
    tree = GraphChainModel(regular_tree(3, 6), starts=((0, 0), (1, 0), (2, 0)))
    assert count_components_probe(tree, 3, 300, 64, 0x5EED) == ProbeReport(
        probe="count-components", units=(3,), values=(0.28125,),
        half_widths=(0.22480460265528374,), trials=(64,), truncation_fraction=0.8125,
        details={"k": 3, "budget": 300, "trials": 64, "seed": 24301})


def test_connectivity_decay_stream_is_frozen():
    model = LatticeChainModel(NGUYEN2)
    assert connectivity_decay_probe(model, (0, 0), [1, 2, 4], 64, 20, 0x5EED) == ProbeReport(
        probe="connectivity-decay", units=(1, 2, 4), values=(0.8125, 0.4375, 0.21875),
        half_widths=(0.19515618744994995, 0.24803918541230538, 0.20669932117692114),
        trials=(64, 64, 64), truncation_fraction=0.5104166666666666,
        details={"origin": "(0, 0)", "distances": [1, 2, 4], "budget": 20, "trials": 64,
                 "seed": 24301})
    assert connectivity_decay_probe(model, (0, 0), [1, 2, 4], 64, 300, 0x5EED) == ProbeReport(
        probe="connectivity-decay", units=(1, 2, 4), values=(0.953125, 0.875, 0.75),
        half_widths=(0.10568554108178659, 0.16535945694153692, 0.21650635094610965),
        trials=(64, 64, 64), truncation_fraction=0.140625,
        details={"origin": "(0, 0)", "distances": [1, 2, 4], "budget": 300, "trials": 64,
                 "seed": 24301})
    tree = GraphChainModel(regular_tree(3, 6))
    assert connectivity_decay_probe(tree, (), [1, 2, 4], 64, 300, 0x5EED) == ProbeReport(
        probe="connectivity-decay", units=(1, 2, 4), values=(0.0, 0.5, 0.5625),
        half_widths=(0.0, 0.25, 0.24803918541230538), trials=(64, 64, 64),
        truncation_fraction=0.6458333333333334,
        details={"origin": "()", "distances": [1, 2, 4], "budget": 300, "trials": 64,
                 "seed": 24301})
