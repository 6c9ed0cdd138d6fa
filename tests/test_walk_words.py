"""Gate for the word-decoding walk: Wilson trees, conditional Wilson trees
and loop-erased paths equal those of the per-step walk it replaced, which
draws `rng.integers(deg)` once per step and is kept here as the oracle.

The oracle reads the same generator (`rng_for` with the sampler's role), so
equal outputs mean the bulk words are decoded into exactly the draws numpy
makes. Natural draws almost never hit Lemire's rejection branch, so words
whose low half falls below the threshold are crafted by hand and checked
against `rng.integers(deg)` on a generator that reads the crafted word
first."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtforest import wusf
from cmtforest.errors import BudgetExhausted
from cmtforest.graphs import FiniteGraph, path_graph, regular_tree, torus_graph
from cmtforest.seeds import rng_for
from cmtforest.wusf import conditional_wilson, lerw, wilson_ust, wired_ball

# -- the per-step oracle ----------------------------------------------------------


def oracle_walk(graph, start, stop, rng, budget):
    """One `rng.integers(deg)` per step; returns the path and the step count."""
    path = [start]
    pos = {start: 0}
    steps = 0
    while path[-1] not in stop:
        if budget is not None and steps >= budget:
            raise BudgetExhausted(f"no hit within {budget} steps")
        ns = graph.neighbors(path[-1])
        nxt = ns[int(rng.integers(len(ns)))]
        steps += 1
        if nxt in pos:
            for w in path[pos[nxt] + 1 :]:
                del pos[w]
            del path[pos[nxt] + 1 :]
        else:
            pos[nxt] = len(path)
            path.append(nxt)
    return path, steps


def oracle_fill(graph, in_tree, parent, rng):
    for v0 in graph.vertices:
        if v0 in in_tree:
            continue
        path, _ = oracle_walk(graph, v0, in_tree, rng, None)
        for a, b in zip(path, path[1:]):
            parent[a] = b
            in_tree.add(a)
    return parent


def oracle_wilson(graph, root, seed):
    return oracle_fill(graph, {root}, {}, rng_for(seed, wusf._ROLE_WILSON))


def oracle_conditional(graph, path, seed):
    parent = dict(zip(path, path[1:]))
    return oracle_fill(graph, set(path), parent, rng_for(seed, wusf._ROLE_WILSON))


def oracle_lerw(graph, start, stop, seed):
    return oracle_walk(graph, start, set(stop), rng_for(seed, wusf._ROLE_LERW), None)


def assert_walks_match(graph, root, start, stop, seed):
    tree = wilson_ust(graph, root, seed)
    assert tree.parent == oracle_wilson(graph, root, seed)

    path, steps = oracle_lerw(graph, start, stop, seed)
    assert lerw(graph, start, stop, seed) == path
    assert lerw(graph, start, stop, seed, budget=steps) == path
    if steps:
        with pytest.raises(BudgetExhausted):
            lerw(graph, start, stop, seed, budget=steps - 1)

    spine, _ = oracle_lerw(graph, start, {root}, seed + 1)
    assert conditional_wilson(graph, spine, seed).parent == oracle_conditional(graph, spine, seed)


# -- inputs -----------------------------------------------------------------------


@st.composite
def multigraphs(draw):
    """Connected multigraphs on up to nine vertices: a random spanning tree
    (so leaves, whose single neighbor reads no word, are common) plus extra
    edges that may repeat (parallel edges), with degrees capped at 12."""
    n = draw(st.integers(1, 9))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges += draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=4 * n))
    adj = {v: [] for v in draw(st.permutations(range(n)))}
    for a, b in edges:
        if len(adj[a]) < 12 and len(adj[b]) < 12:
            adj[a].append(b)
            adj[b].append(a)
    return FiniteGraph(adj)


seeds = st.integers(0, 2**64 - 2)


@settings(max_examples=150)
@given(graph=multigraphs(), data=st.data())
def test_multigraph_walks_equal_oracle(graph, data):
    vs = graph.vertices
    root, start = data.draw(st.sampled_from(vs)), data.draw(st.sampled_from(vs))
    stop = data.draw(st.sets(st.sampled_from(vs), min_size=1, max_size=3))
    assert_walks_match(graph, root, start, stop, data.draw(seeds))


@settings(max_examples=40)
@given(radius=st.integers(0, 3), dimension=st.integers(1, 3), data=st.data())
def test_wired_ball_walks_equal_oracle(radius, dimension, data):
    graph, z = wired_ball(radius, dimension)
    start = data.draw(st.sampled_from(graph.vertices))
    assert_walks_match(graph, z, start, {z}, data.draw(seeds))


@pytest.mark.parametrize("graph", [
    regular_tree(3, 3),  # leaves
    wired_ball(3, 2)[0],  # parallel edges to the boundary
    torus_graph(2, 2),  # parallel edges everywhere
    torus_graph(6, 2),
    path_graph(5),
], ids=["tree", "wired-ball", "torus-2", "torus-6", "path"])
def test_fixed_graph_walks_equal_oracle(graph):
    vs = graph.vertices
    for seed in range(20):
        root, start = vs[seed % len(vs)], vs[(7 * seed + 3) % len(vs)]
        assert_walks_match(graph, root, start, {vs[(5 * seed + 1) % len(vs)]}, seed)


# -- the decoder on crafted words -------------------------------------------------


def word_with_low(deg, low):
    """A word w with (w * deg) % 2**32 == low; low must be a multiple of the
    largest power of two dividing deg."""
    v = (deg & -deg).bit_length() - 1
    mod = 2 ** (32 - v)
    return (low >> v) * pow(deg >> v, -1, mod) % mod


def reading_first(seed, word):
    """A generator whose next 32-bit read is `word`, then the stream of seed.
    PCG64 keeps the unread high half of its last output; setting that slot
    puts the crafted word first."""
    bits = np.random.PCG64(seed)
    state = bits.state
    state.update(has_uint32=1, uinteger=word)
    bits.state = state
    return np.random.Generator(bits)


def star(deg):
    return FiniteGraph({"c": tuple(range(deg)), **{i: ("c",) for i in range(deg)}})


@pytest.mark.parametrize("deg", [2, 3, 4, 5, 6, 7, 12, 100, 1000, 1024])
def test_decoder_matches_numpy_on_crafted_words(deg):
    graph = star(deg)
    leaves = set(range(deg))
    threshold = (2**32 - deg) % deg
    grain = deg & -deg
    lows = {0, grain * ((deg - 1) // grain)}
    if threshold:  # threshold is a multiple of grain: the last rejected and first kept lows
        lows |= {threshold - grain, threshold}
    rejected = 0
    for low, seed in itertools.product(sorted(lows), range(4)):
        word = word_with_low(deg, low)
        assert word * deg % 2**32 == low
        rejected += low < threshold
        rng = reading_first(seed, word)
        expect = int(rng.integers(deg))
        words = itertools.chain([word], wusf._words(np.random.Generator(np.random.PCG64(seed))))
        assert wusf._loop_erased_walk(graph, "c", leaves, words, None) == ["c", expect]
        # both read the same number of words
        assert next(words) == int(rng.integers(0, 2**32, dtype=np.uint64))
    assert (rejected > 0) == (threshold > 0)


def test_degree_one_vertex_reads_no_word():
    # 0 has one neighbor; the single word is read at 1 and picks its neighbor 2
    words = iter([2**31])
    assert wusf._loop_erased_walk(path_graph(3), 0, {2}, words, None) == [0, 1, 2]
    assert next(words, None) is None


def test_words_are_the_integers_stream():
    rng = np.random.Generator(np.random.PCG64(11))
    words = wusf._words(np.random.Generator(np.random.PCG64(11)))
    expect = rng.integers(0, 2**32, size=9000, dtype=np.uint64).tolist()
    assert list(itertools.islice(words, 9000)) == expect
