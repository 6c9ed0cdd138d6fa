"""Forest invariants on random partial functional graphs, and the equality
of the array core (pointer-doubling labels and depths, CSR preimages) with
the union-find, dict and breadth-first-search code it replaced, which is
kept here as the oracle.

Every suite is deterministic (derandomize=True) with a bounded number of
examples. Graphs mix cycles, boundary exits and vertices with no jump, on
int vertices and on 2-tuple vertices.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtforest.analysis import in_degree_profile
from cmtforest.errors import UnknownVertex
from cmtforest.forest import (
    EXIT,
    FINITE_CYCLE,
    TRUNCATED,
    build_forest,
    classify_component,
    component_heights,
    components,
    dump_forest,
    level_set,
    load_forest,
    reverse_jump,
)
from cmtforest.lattice import even_sublattice, integer_lattice, sample_lattice_cmt, uniform_jumps

SUITE = settings(derandomize=True, max_examples=150, deadline=None, database=None)


# -- oracles: the dict and union-find code the array core replaced -----------------


def oracle_reverse_jump(forest):
    rev = {}
    for src, dst in forest.jump.items():
        rev.setdefault(dst, []).append(src)
    return {v: tuple(ps) for v, ps in rev.items()}


def oracle_components(forest):
    """(id, members, cycle_count, boundary_arc_count, label) per component."""
    parent = {v: v for v in forest.vertices}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for src, dst in forest.jump.items():
        a, b = find(src), find(dst)
        if a != b:
            parent[a] = b
    groups = {}
    for v in forest.vertices:
        groups.setdefault(find(v), []).append(v)
    out = []
    for cid, members in enumerate(sorted(groups.values(), key=min)):
        dangling = sum(1 for v in members if v not in forest.jump)
        cycle_count = 1 if dangling == 0 else 0
        label = FINITE_CYCLE if cycle_count == 1 and dangling == 0 else TRUNCATED
        out.append((cid, frozenset(members), cycle_count, dangling, label))
    return out


def oracle_heights(forest, anchor):
    rev = oracle_reverse_jump(forest)
    heights = {anchor: 0}
    frontier = [anchor]
    while frontier:
        nxt = []
        for w in frontier:
            h = heights[w]
            tgt = forest.jump.get(w)
            if tgt is not None and tgt not in heights:
                heights[tgt] = h - 1
                nxt.append(tgt)
            for u in rev.get(w, ()):
                if u not in heights:
                    heights[u] = h + 1
                    nxt.append(u)
        frontier = nxt
    return heights


def oracle_level_set(forest, v, horizon):
    """The level set by descent from v's k-th iterate, and the truncation
    flag from a component search and a distance-to-termination search."""
    anc = [v]
    for _ in range(horizon):
        if anc[-1] not in forest.jump:
            break
        anc.append(forest.jump[anc[-1]])
    rev = oracle_reverse_jump(forest)
    level = {anc[-1]}
    for _ in range(len(anc) - 1):
        level = {u for w in level for u in rev.get(w, ())}

    comp, frontier = {v}, [v]
    while frontier:
        nxt = []
        for w in frontier:
            nb = list(rev.get(w, ()))
            if w in forest.jump:
                nb.append(forest.jump[w])
            for u in nb:
                if u not in comp:
                    comp.add(u)
                    nxt.append(u)
        frontier = nxt
    dist = {u: 0 for u in forest.vertices if u not in forest.jump}
    frontier, d = list(dist), 0
    while frontier and d < horizon:
        d += 1
        nxt = []
        for w in frontier:
            for u in rev.get(w, ()):
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    truncated = any(dist.get(w, horizon) < horizon for w in comp)
    return frozenset(level), truncated


# -- random windows -----------------------------------------------------------------


@st.composite
def windows(draw):
    """A random partial functional graph: each vertex gets no jump, EXIT,
    or a uniformly drawn in-window target, with the three weighted by a
    drawn mix so that windows range from all-cyclic to mostly truncated."""
    if draw(st.booleans()):
        verts = draw(st.lists(st.integers(-40, 40), unique=True, max_size=30))
    else:
        coord = st.integers(-4, 4)
        verts = draw(st.lists(st.tuples(coord, coord), unique=True, max_size=30))
    verts = draw(st.permutations(verts))  # jump order differs from vertex order
    stop = draw(st.integers(0, 3))
    pairs = []
    for v in verts:
        kind = draw(st.integers(0, 9))
        if kind < stop:
            continue
        if kind == stop:
            pairs.append((v, EXIT))
        else:
            pairs.append((v, verts[draw(st.integers(0, len(verts) - 1))]))
    return build_forest(verts, pairs)


def cycles_in(forest, members):
    """Distinct cycles met by the forward orbits of members."""
    found = set()
    for v in members:
        seen = []
        while v in forest.jump and v not in seen:
            seen.append(v)
            v = forest.jump[v]
        if v in seen:
            found.add(frozenset(seen[seen.index(v):]))
    return found


# -- the core against the oracles ---------------------------------------------------


@SUITE
@given(windows())
def test_core_components_equal_union_find(fw):
    got = [(c.component_id, c.members, c.cycle_count, c.boundary_arc_count, c.label)
           for c in components(fw)]
    assert got == oracle_components(fw)
    assert [c.size for c in components(fw)] == [len(c.members) for c in components(fw)]



@SUITE
@given(windows())
def test_classify_component_is_its_components_entry(fw):
    comps = components(fw)
    for c in range(len(comps)):
        assert classify_component(fw, c) == comps[c]
    for c in (-1, len(comps)):
        with pytest.raises(UnknownVertex, match=f"no component {c}"):
            classify_component(fw, c)


@SUITE
@given(windows())
def test_core_reverse_map_equals_dict_build(fw):
    # equal as ordered sequences: keys by first appearance, preimages in jump order
    assert list(reverse_jump(fw).items()) == list(oracle_reverse_jump(fw).items())


@SUITE
@given(windows())
def test_core_heights_equal_bfs(fw):
    for c in components(fw):
        if c.cycle_count == 0:
            assert component_heights(fw, min(c.members)) == oracle_heights(fw, min(c.members))


@SUITE
@given(windows(), st.integers(0, 8))
def test_core_level_set_equals_searches(fw, horizon):
    for v in sorted(fw.vertices):
        assert level_set(fw, v, horizon) == oracle_level_set(fw, v, horizon)


@SUITE
@given(windows())
def test_core_in_degree_profile_equals_counts(fw):
    if not fw.vertices:
        return
    rev = oracle_reverse_jump(fw)
    hist = {}
    for v in fw.vertices:
        k = len(rev.get(v, ()))
        hist[k] = hist.get(k, 0) + 1
    prof = in_degree_profile(fw)
    assert prof.histogram == hist
    assert prof.mean == Fraction(len(fw.jump), len(fw.vertices))


# -- invariants ---------------------------------------------------------------------


@SUITE
@given(windows())
def test_components_partition_with_at_most_one_cycle(fw):
    comps = components(fw)
    assert sum(c.size for c in comps) == len(fw.vertices)
    assert frozenset().union(*(c.members for c in comps)) == fw.vertices
    for c in comps:
        cycles = cycles_in(fw, c.members)
        assert len(cycles) <= 1
        assert c.cycle_count == len(cycles)


@SUITE
@given(windows())
def test_height_drops_by_one_along_every_jump(fw):
    for c in components(fw):
        if c.cycle_count:
            continue
        hs = component_heights(fw, min(c.members))
        assert set(hs) == c.members and hs[min(c.members)] == 0
        for v in c.members:
            if v in fw.jump:
                assert hs[fw.jump[v]] == hs[v] - 1


@SUITE
@given(windows(), st.integers(0, 6))
def test_level_sets_are_symmetric(fw, horizon):
    for v in fw.vertices:
        members, _ = level_set(fw, v, horizon)
        assert v in members
        for w in members:
            assert v in level_set(fw, w, horizon)[0]


@SUITE
@given(windows())
def test_dump_load_round_trip(fw):
    back = load_forest(dump_forest(fw))
    assert (back.vertices, back.jump, back.exits) == (fw.vertices, fw.jump, fw.exits)
    assert dump_forest(back) == dump_forest(fw)


@SUITE
@given(st.data())
def test_mean_in_degree_is_one_on_every_valid_torus(data):
    even = data.draw(st.booleans())
    sides = [data.draw(st.integers(1, 4)) * (2 if even else 1) for _ in range(2)]
    lattice = even_sublattice(2) if even else integer_lattice(2)
    atom = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    if even:
        atom = atom.filter(lambda a: (a[0] + a[1]) % 2 == 0)
    atoms = data.draw(st.lists(atom, min_size=1, max_size=4, unique=True))
    fw = sample_lattice_cmt(lattice, uniform_jumps(atoms), [(0, s - 1) for s in sides],
                            data.draw(st.integers(0, 2**32)), wrap=sides)
    assert in_degree_profile(fw).mean == 1
    assert all(c.cycle_count == 1 and c.boundary_arc_count == 0 for c in components(fw))


def test_core_built_lazily_by_racing_threads_reads_the_same():
    # component ids, the component CSR and the vertices that reverse_jump reads
    # are cached on first read; threads that race to build them on one shared
    # window must all read what a serial reader reads
    def read(fw):
        return ([(c.members, c.label) for c in components(fw)], reverse_jump(fw),
                [level_set(fw, v, 5) for v in sorted(fw.vertices)[:40]])

    def window():
        return sample_lattice_cmt(integer_lattice(2), uniform_jumps([(1, 1), (1, -1), (1, 0)]),
                                  [(0, 29), (-10, 10)], 5)

    expect = read(window())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            fw = window()
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(read, fw) for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
            assert all(r == expect for r in results)
    finally:
        sys.setswitchinterval(interval)
