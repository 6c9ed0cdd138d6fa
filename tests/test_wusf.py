import copy
import math
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from cmtforest.errors import (
    BadGraph,
    BadPath,
    BudgetExhausted,
    ConfigError,
    NotConnected,
    TooLarge,
    Unconditionable,
    UnknownVertex,
)
from cmtforest.graphs import (
    FiniteGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    regular_tree,
    torus_graph,
)
from cmtforest.seeds import derive_seed
from cmtforest.wusf import (
    BOUNDARY,
    OrientedTreeOrForest,
    conditional_wilson,
    covering_coupling_check,
    dump_tree,
    lerw,
    spanning_trees,
    wilson_ust,
    wired_ball,
    wusf_window,
)


def tree_key(tree):
    return (
        tuple(sorted(tree.parent.items(), key=repr)),
        tuple(sorted(tree.roots, key=repr)),
    )


def freq_band(count, n, p, sigmas=4):
    half = sigmas * math.sqrt(p * (1 - p) / n)
    return abs(count / n - p) <= half


def dc_trees(vertices, edges):
    """Spanning tree enumeration by deletion/contraction on edge ids."""
    vs = set(vertices)
    live = [(i, a, b) for i, a, b in edges if a != b]
    if len(vs) == 1:
        return [frozenset()]
    if not live:
        return []
    eid, u, v = live[0]
    rest = live[1:]
    out = list(dc_trees(vs, rest))
    merged = [(i, u if a == v else a, u if b == v else b) for i, a, b in rest]
    out.extend(t | {eid} for t in dc_trees(vs - {v}, merged))
    return out


def dc_tree_set(graph):
    edges = sorted(
        {frozenset((u, v)) for u in graph.vertices for v in graph.neighbors(u) if u != v},
        key=lambda e: sorted(map(repr, e)),
    )
    labelled = [(i, *e) for i, e in enumerate(edges)]
    return {frozenset(edges[i] for i in t) for t in dc_trees(graph.vertices, labelled)}


def solve_fraction_system(m, b):
    """Gaussian elimination over Fractions; returns the solution columns."""
    n = len(m)
    a = [list(row) + list(extra) for row, extra in zip(m, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def lerw_law(graph, start, stop):
    """Exact loop-erased walk law via the absorbing chain on simple paths."""
    stop = frozenset(stop)
    if start in stop:
        return {(start,): Fraction(1)}
    states = [(start,)]
    index = {(start,): 0}
    moves = []
    queue = [(start,)]
    targets = []
    target_index = {}
    while queue:
        fresh = []
        for path in queue:
            ns = graph.neighbors(path[-1])
            w = Fraction(1, len(ns))
            for y in ns:
                if y in stop:
                    done = path + (y,)
                    if done not in target_index:
                        target_index[done] = len(targets)
                        targets.append(done)
                    moves.append((index[path], ("out", target_index[done]), w))
                    continue
                nxt = path[: path.index(y) + 1] if y in path else path + (y,)
                if nxt not in index:
                    index[nxt] = len(states)
                    states.append(nxt)
                    fresh.append(nxt)
                moves.append((index[path], index[nxt], w))
        queue = fresh
    n = len(states)
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    b = [[Fraction(0)] * len(targets) for _ in range(n)]
    for i, j, w in moves:
        if isinstance(j, tuple):
            b[i][j[1]] += w
        else:
            m[i][j] -= w
    sol = solve_fraction_system(m, b)
    return {t: sol[0][k] for k, t in enumerate(targets)}


def test_tree_type_validation():
    t = OrientedTreeOrForest({0: 1, 2: 1}, frozenset([1]))
    assert t.vertices() == {0, 1, 2}
    assert len(t) == 3
    with pytest.raises(BadGraph):
        OrientedTreeOrForest({0: 1, 1: 0}, frozenset([2]))
    with pytest.raises(BadGraph):
        OrientedTreeOrForest({0: 1}, frozenset([0]))
    with pytest.raises(BadGraph):
        OrientedTreeOrForest({0: 1}, frozenset([2]))


@pytest.mark.parametrize("parent, roots, message", [
    ({0: 1, 1: 0}, [2], "parent map has a cycle"),
    ({0: 1, 1: 2, 2: 1, 3: 4}, [4], "parent map has a cycle"),
    ({0: 1}, [2], "parent chain leaves the structure at 1"),
    ({(0, 0): (0, 1), (0, 1): (0, 2)}, [(0, 3)], r"leaves the structure at \(0, 2\)"),
    ({0: 1}, [0], "a root cannot also have a parent"),
    ({0: [1]}, [1], r"leaves the structure at \[1\]"),
])
def test_caller_built_tree_is_still_checked(parent, roots, message):
    # the library's own builders skip the walk; a caller's map never does
    with pytest.raises(BadGraph, match=message):
        OrientedTreeOrForest(parent, frozenset(roots))


def walk_check(parent, roots):
    """The three-state walk OrientedTreeOrForest used to validate a caller's
    parent map, kept as the oracle: BadGraph naming the first fault it meets."""
    if set(parent) & roots:
        raise BadGraph("a root cannot also have a parent")
    state = {}  # 1 = on current walk, 2 = known to reach a root
    for v0 in parent:
        trail = []
        v = v0
        while v in parent and state.get(v) is None:
            state[v] = 1
            trail.append(v)
            v = parent[v]
        if state.get(v) == 1:
            raise BadGraph("parent map has a cycle")
        if v not in parent and v not in roots and v not in state:
            raise BadGraph(f"parent chain leaves the structure at {v!r}")
        for w in trail:
            state[w] = 2
        state[v] = 2


def fault_count(parent, roots):
    """Roots with a parent count as one fault; otherwise each parent that is
    neither a vertex nor a root, and each cycle, is one."""
    if set(parent) & roots:
        return 1
    cycles = set()
    for v in parent:
        line = [v]
        while line[-1] in parent and parent[line[-1]] not in line:
            line.append(parent[line[-1]])
        if line[-1] in parent:
            cycles.add(frozenset(line[line.index(parent[line[-1]]):]))
    return len(set(parent.values()) - set(parent) - roots) + len(cycles)


def message(check, parent, roots):
    try:
        check(parent, roots)
    except BadGraph as e:
        return str(e)
    return None


# wired_ball trees mix the string vertex BOUNDARY with tuples
VERTEX = st.sampled_from([0, 1, 2, 3, 4, (0, 0), (0, 1), (1, 0), BOUNDARY, "x"])


@st.composite
def parent_maps(draw):
    """Any map over a small mixed vertex pool (self-loops, cycles, chains
    that leave, roots with a parent, the empty map), or a forest built
    toward its roots, with one fault sometimes planted in it."""
    if draw(st.booleans()):
        parent = draw(st.dictionaries(VERTEX, VERTEX, max_size=8))
        return parent, frozenset(draw(st.sets(VERTEX, max_size=3)))
    order = draw(st.lists(VERTEX, unique=True, min_size=1, max_size=10))
    k = draw(st.integers(1, len(order)))
    roots, parent = order[:k], {}
    for i, v in enumerate(order[k:], start=k):
        parent[v] = order[draw(st.integers(0, i - 1))]
    if parent and draw(st.booleans()):  # itself or a later vertex may close a cycle
        v = draw(st.sampled_from(sorted(parent, key=repr)))
        parent[v] = draw(st.one_of(st.sampled_from(order), VERTEX))
    return parent, frozenset(roots)


@settings(max_examples=600)
@given(parent_maps())
@example(({}, frozenset([0])))  # a lone root
@example(({0: 0}, frozenset()))
@example(({(0, 0): BOUNDARY, (0, 1): (0, 0)}, frozenset([BOUNDARY])))  # as wired_ball trees
def test_parent_map_check_equals_the_walk(case):
    parent, roots = case
    want = message(walk_check, parent, roots)
    got = message(OrientedTreeOrForest, parent, roots)
    assert (got is None) == (want is None), (parent, roots, got, want)
    if fault_count(parent, roots) == 1:
        assert got == want, (parent, roots)


@pytest.mark.parametrize("parent, roots, message", [
    ({0: 1, 2: "y", 1: "x"}, [], "parent chain leaves the structure at 'y'"),
    ({0: 0, 1: "x"}, [], "parent chain leaves the structure at 'x'"),
    ({0: 0, 1: 2}, [1], "a root cannot also have a parent"),
])
def test_parent_map_with_several_faults_names_one(parent, roots, message):
    # a root with a parent first, then the first parent in map order that
    # is neither a vertex nor a root, then a cycle
    with pytest.raises(BadGraph, match=f"^{message}$"):
        OrientedTreeOrForest(parent, frozenset(roots))


@pytest.mark.parametrize("build", [
    lambda s: wilson_ust(complete_graph(4), 0, s),
    lambda s: wilson_ust(cycle_graph(7), 3, s),
    lambda s: conditional_wilson(cycle_graph(7), [0, 1, 2], s),
    lambda s: wusf_window(3, s, dimension=2),
    lambda s: wusf_window(2, s, dimension=3),
])
def test_built_trees_pass_the_full_check(build):
    for seed in range(20):
        tree = build(seed)
        assert type(tree.parent) is dict and type(tree.roots) is frozenset
        assert OrientedTreeOrForest(tree.parent, tree.roots) == tree


def test_wilson_path_graph_unique_tree():
    g = path_graph(3)
    for seed in range(5):
        t = wilson_ust(g, 1, seed)
        assert t.parent == {0: 1, 2: 1}
        assert t.roots == frozenset([1])


def test_wilson_on_tree_graph_returns_the_graph():
    g = regular_tree(3, 3)
    t = wilson_ust(g, (), 42)
    assert len(t.parent) == len(g.vertices) - 1
    for child, par in t.parent.items():
        assert par == child[:-1]


def test_wilson_k3_uniform():
    g = complete_graph(3)
    counts = {}
    n = 20000
    for trial in range(n):
        key = tree_key(wilson_ust(g, 0, derive_seed(9, trial)))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 3
    for c in counts.values():
        assert freq_band(c, n, 1 / 3)
    assert chisquare(list(counts.values())).pvalue >= 1e-3


def test_wilson_k4_uniform():
    g = complete_graph(4)
    counts = {}
    n = 32000
    for trial in range(n):
        key = tree_key(wilson_ust(g, 0, derive_seed(10, trial)))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 16
    for c in counts.values():
        assert freq_band(c, n, 1 / 16)
    assert chisquare(list(counts.values())).pvalue >= 1e-3


def test_wilson_tree_respects_graph_edges():
    g = cycle_graph(6)
    t = wilson_ust(g, 0, 77)
    assert t.vertices() == set(g.vertices)
    for v, p in t.parent.items():
        assert p in g.neighbors(v)


def test_wilson_errors():
    split = FiniteGraph({0: [1], 1: [0], 2: [3], 3: [2]})
    with pytest.raises(NotConnected):
        wilson_ust(split, 0, 1)
    loop = FiniteGraph({0: [0, 1], 1: [0]})
    with pytest.raises(BadGraph):
        wilson_ust(loop, 0, 1)
    with pytest.raises(UnknownVertex):
        wilson_ust(path_graph(2), 9, 1)


def test_lerw_start_in_stop():
    assert lerw(path_graph(4), 2, {2, 3}, 5) == [2]


def test_lerw_path_graph_forced_route():
    for seed in range(4):
        walk = lerw(path_graph(4), 0, {3}, seed)
        assert walk == [0, 1, 2, 3]


def test_lerw_law_oracle_matches_hand_values():
    law = lerw_law(cycle_graph(4), 0, {2})
    assert law == {(0, 1, 2): Fraction(1, 2), (0, 3, 2): Fraction(1, 2)}
    law3 = lerw_law(complete_graph(3), 0, {2})
    assert law3 == {(0, 2): Fraction(2, 3), (0, 1, 2): Fraction(1, 3)}


def test_lerw_c4_matches_exact_law():
    g = cycle_graph(4)
    law = lerw_law(g, 0, {2})
    counts = {}
    n = 20000
    for trial in range(n):
        walk = tuple(lerw(g, 0, {2}, derive_seed(11, trial)))
        assert len(set(walk)) == len(walk)
        counts[walk] = counts.get(walk, 0) + 1
    assert set(counts) == set(law)
    for path, p in law.items():
        assert freq_band(counts[path], n, float(p))


def test_lerw_k3_matches_exact_law():
    g = complete_graph(3)
    law = lerw_law(g, 0, {2})
    counts = {}
    n = 20000
    for trial in range(n):
        walk = tuple(lerw(g, 0, {2}, derive_seed(12, trial)))
        counts[walk] = counts.get(walk, 0) + 1
    for path, p in law.items():
        assert freq_band(counts.get(path, 0), n, float(p))


def test_lerw_budget_and_reachability():
    with pytest.raises(BudgetExhausted):
        lerw(path_graph(60), 0, {59}, 3, budget=10)
    split = FiniteGraph({0: [1], 1: [0], 2: [3], 3: [2]})
    with pytest.raises(NotConnected):
        lerw(split, 0, {2}, 3)
    assert lerw(split, 0, {1, 2}, 3) == [0, 1]  # one reachable stop vertex is enough
    with pytest.raises(ConfigError):
        lerw(path_graph(3), 0, set(), 3)


@pytest.mark.parametrize("budget", [-1, 1.5, True])
def test_lerw_budget_must_be_a_count(budget):
    with pytest.raises(ConfigError, match=f"^budget must be an integer >= 0, got {budget!r}$"):
        lerw(path_graph(60), 0, {59}, 3, budget=budget)


def test_wired_ball_shapes():
    g, z = wired_ball(1, 1)
    assert z == BOUNDARY
    assert sorted(g.neighbors(z)) == [(-1,), (1,)]
    assert g.edge_count() == 4
    g2, z2 = wired_ball(1, 2)
    assert len(g2.vertices) == 6
    assert g2.edge_count() == 16
    assert g2.neighbors((1, 0)).count(z2) == 3
    with pytest.raises(ConfigError):
        wired_ball(-1, 2)


def test_wusf_window_radius_zero():
    t = wusf_window(0, 4, dimension=3)
    assert t.parent == {}
    assert t.roots == frozenset([(0, 0, 0)])


def test_wusf_window_every_vertex_present():
    t = wusf_window(2, 8, dimension=3)
    assert len(t) == 25
    assert t.roots
    for v, p in t.parent.items():
        assert sum(abs(a - b) for a, b in zip(v, p)) == 1


def test_wusf_window_d1_enumeration_and_uniformity():
    expected = {
        tree_key(OrientedTreeOrForest(p, frozenset(r)))
        for p, r in [
            ({(0,): (1,)}, [(-1,), (1,)]),
            ({(0,): (-1,)}, [(-1,), (1,)]),
            ({(-1,): (0,), (0,): (1,)}, [(1,)]),
            ({(1,): (0,), (0,): (-1,)}, [(-1,)]),
        ]
    }
    counts = {}
    n = 12000
    for trial in range(n):
        key = tree_key(wusf_window(1, derive_seed(13, trial), dimension=1))
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) == expected
    for c in counts.values():
        assert freq_band(c, n, 1 / 4)


def test_conditional_wilson_contains_path():
    g = complete_graph(4)
    for seed in range(6):
        t = conditional_wilson(g, [0, 1, 2], seed)
        assert t.parent[0] == 1
        assert t.parent[1] == 2
        assert t.roots == frozenset([2])
        assert t.vertices() == {0, 1, 2, 3}


def test_conditional_wilson_path_covers_graph():
    t = conditional_wilson(path_graph(4), [0, 1, 2, 3], 5)
    assert t.parent == {0: 1, 1: 2, 2: 3}


def test_conditional_wilson_bad_paths():
    g = path_graph(3)
    with pytest.raises(BadPath):
        conditional_wilson(g, [0, 1, 0], 1)
    with pytest.raises(BadPath):
        conditional_wilson(g, [0, 2], 1)
    with pytest.raises(BadPath):
        conditional_wilson(g, [], 1)


def test_conditional_wilson_unknown_vertices():
    # checked before the edges; a lone unknown root once sent every walk
    # looking for a vertex it could never reach
    g = complete_graph(4)
    for path in (["x", 0], ["x"], [0, "x"], [0, 1, "x"]):
        with pytest.raises(UnknownVertex, match="'x'"):
            conditional_wilson(g, path, 1)


def test_self_loop_error_names_first_loop():
    loops = FiniteGraph({0: [1], 1: [0, 1, 2], 2: [1, 2]})
    with pytest.raises(BadGraph, match="self-loop at 1"):
        wilson_ust(loops, 0, 1)
    with pytest.raises(BadGraph, match="self-loop at 1"):
        conditional_wilson(loops, [0, 1], 1)


def test_conditional_wilson_mixture_reproduces_uniform():
    g, z = wired_ball(1, 1)
    counts = {}
    n = 12000
    for trial in range(n):
        walk = lerw(g, (0,), {z}, derive_seed(14, trial, 0))
        t = conditional_wilson(g, walk, derive_seed(14, trial, 1))
        key = tree_key(t)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 4
    for c in counts.values():
        assert freq_band(c, n, 1 / 4)


def test_spanning_trees_matches_deletion_contraction():
    for g in [complete_graph(3), complete_graph(4), path_graph(4), wired_ball(1, 1)[0]]:
        assert set(spanning_trees(g)) == dc_tree_set(g)
    assert len(spanning_trees(complete_graph(4))) == 16


def test_spanning_trees_refuses_a_large_enumeration_at_once():
    # K8 has C(28, 7) = 1,184,040 seven-edge subsets, just past the cap
    for n in (8, 9):
        with pytest.raises(TooLarge, match=f"would try {math.comb(n * (n - 1) // 2, n - 1)} "):
            spanning_trees(complete_graph(n))


def test_covering_coupling_feasible_cases():
    c3 = complete_graph(3)
    e = frozenset((0, 1))
    assert covering_coupling_check(c3, [], [], []) is True
    assert covering_coupling_check(c3, [e], [e], []) is True
    k4 = complete_graph(4)
    f = frozenset((0, 1))
    assert covering_coupling_check(k4, [f], [f], []) is True
    assert covering_coupling_check(k4, [f], [f], [f]) is True


def test_covering_coupling_errors():
    c3 = complete_graph(3)
    all_edges = [frozenset((0, 1)), frozenset((1, 2)), frozenset((0, 2))]
    with pytest.raises(Unconditionable):
        covering_coupling_check(c3, all_edges, all_edges, [])
    with pytest.raises(ConfigError):
        covering_coupling_check(c3, [frozenset((0, 1))], [frozenset((1, 2))], [])
    with pytest.raises(TooLarge):
        covering_coupling_check(path_graph(7), [], [], [])


def test_dump_tree_format():
    t = OrientedTreeOrForest({(0, 1): (0, 2)}, frozenset([(0, 2)]))
    text = dump_tree(t)
    lines = text.strip().split("\n")
    assert lines[0] == "vertex,parent"
    assert "0 1,0 2" in lines
    assert "0 2,ROOT" in lines


def test_sampler_determinism():
    k4 = complete_graph(4)
    assert tree_key(wilson_ust(k4, 0, 99)) == tree_key(wilson_ust(k4, 0, 99))
    assert tree_key(wusf_window(1, 7, dimension=2)) == tree_key(
        wusf_window(1, 7, dimension=2)
    )
    assert lerw(cycle_graph(5), 0, {3}, 21) == lerw(cycle_graph(5), 0, {3}, 21)


# -- the graph frame ---------------------------------------------------------------


FRAME_GRAPHS = {
    "k4": complete_graph(4),
    "tree": regular_tree(3, 2),
    "torus": torus_graph(5, 2),
    "wired": wired_ball(2, 2)[0],
    "multi": FiniteGraph({0: (1, 1, 2), 1: (0, 0, 1), 2: (0,)}),  # parallel edge, self-loop
}


@pytest.mark.parametrize("name", FRAME_GRAPHS)
def test_frame_rows_are_the_adjacency(name):
    # walks step by place in a row, so the rows keep adjacency order and multiplicity
    g = FRAME_GRAPHS[name]
    verts, row, nbrs = g.frame
    assert verts == g.vertices == tuple(g.adjacency)
    assert dict(row) == {v: i for i, v in enumerate(verts)}
    assert [tuple(verts[j] for j in ns) for ns in nbrs] == list(g.adjacency.values())


def test_adjacency_is_read_only():
    # a written row was read by the adjacency but not by the cached frame and
    # components, so walks and the connectivity check disagreed with the graph
    g = complete_graph(4)
    tree = wilson_ust(g, 0, 5)
    with pytest.raises(TypeError):
        g.adjacency[0] = (1,)
    with pytest.raises(TypeError):
        del g.adjacency[3]
    with pytest.raises(TypeError):
        g.frame.row[0] = 2
    assert g.adjacency[0] == (1, 2, 3) and len(g.adjacency) == 4
    assert wilson_ust(g, 0, 5).parent == tree.parent


def test_a_read_graph_pickles_and_compares_equal():
    g = wired_ball(2, 2)[0]
    frame, component = g.frame, g.component
    for back in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert back == g and back.frame == frame and back.component == component
        assert list(back.adjacency.items()) == list(g.adjacency.items())
        assert wilson_ust(back, BOUNDARY, 3).parent == wilson_ust(g, BOUNDARY, 3).parent


def test_frame_built_by_racing_threads_reads_the_same():
    # the frame is cached on first read; threads that race to build it on one
    # shared graph must all read what a serial reader reads
    def read(g):
        return g.frame, wilson_ust(g, (0, 0), 2).parent

    expect = read(torus_graph(12, 2))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g = torus_graph(12, 2)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(read, g) for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
            assert all(r == expect for r in results)
    finally:
        sys.setswitchinterval(interval)
