"""Window construction, traversal, components, level sets, heights, dumps."""

import re

import numpy as np
import pytest

from cmtforest.forest import (
    EXIT,
    ancestral_line,
    build_forest,
    classify_component,
    components,
    descendants,
    dump_forest,
    height,
    level_set,
    load_forest,
    reverse_jump,
)
from cmtforest.errors import ConfigError, CyclicComponent, MalformedJump, UnknownVertex
from cmtforest.seeds import rng_for


def chain(n):
    return build_forest(range(n), [(i, i + 1) for i in range(n - 1)])


def random_window(seed, n=40, exit_frac=0.1, dangle_frac=0.1):
    """Random partial functional graph on n integer vertices."""
    rng = rng_for(seed, 0xF0)
    pairs = []
    for v in range(n):
        u = rng.random()
        if u < dangle_frac:
            continue
        if u < dangle_frac + exit_frac:
            pairs.append((v, EXIT))
        else:
            pairs.append((v, int(rng.integers(n))))
    return build_forest(range(n), pairs)


def iterate(forest, v, k):
    """k-th jump iterate, or None if the line leaves the window first."""
    for _ in range(k):
        if v not in forest.jump:
            return None
        v = forest.jump[v]
    return v


# -- construction -----------------------------------------------------------


def test_build_duplicate_source_rejected():
    with pytest.raises(MalformedJump):
        build_forest([0, 1, 2], [(0, 1), (0, 2)])


def test_build_unknown_source_rejected():
    with pytest.raises(UnknownVertex):
        build_forest([0, 1], [(7, 0)])


def test_exit_sentinel_and_foreign_target_both_flag_exits():
    fw = build_forest([0, 1, 2], [(0, EXIT), (1, (9, 9)), (2, 0)])
    assert fw.exits == {0, 1}
    assert fw.jump == {2: 0}


def test_interior_is_clipped_to_jump_domain():
    fw = build_forest([0, 1, 2], [(0, 1)], interior=[0, 1, 2])
    assert fw.interior == {0}


# -- ancestral lines --------------------------------------------------------


def test_line_boundary_exit():
    tr = ancestral_line(chain(3), 0, 10)
    assert tr.path == [0, 1, 2]
    assert tr.termination == "BoundaryExit"


def test_line_budget():
    tr = ancestral_line(chain(5), 0, 2)
    assert tr.path == [0, 1, 2]
    assert tr.termination == "BudgetExhausted"


def test_line_cycle_and_fixed_point():
    fw = build_forest([0, 1, 2], [(0, 1), (1, 2), (2, 1)])
    tr = ancestral_line(fw, 0, 100)
    assert tr.path == [0, 1, 2]
    assert tr.termination == "CycleDetected"
    assert tr.cycle_entry == 1

    fp = build_forest([0, 1], [(0, 1), (1, 1)])
    tr = ancestral_line(fp, 0, 100)
    assert tr.path == [0, 1]
    assert tr.termination == "FixedPoint"


def test_line_unknown_vertex():
    with pytest.raises(UnknownVertex):
        ancestral_line(chain(3), 99, 5)


def test_line_deterministic_replay():
    fw = random_window(7)
    a = ancestral_line(fw, 5, 30)
    b = ancestral_line(fw, 5, 30)
    assert a.path == b.path and a.termination == b.termination


# -- components -------------------------------------------------------------


def bfs_component_count(fw):
    """Independent count via undirected breadth-first search."""
    adj = {v: set() for v in fw.vertices}
    for s, d in fw.jump.items():
        adj[s].add(d)
        adj[d].add(s)
    seen = set()
    count = 0
    for v in fw.vertices:
        if v in seen:
            continue
        count += 1
        stack = [v]
        seen.add(v)
        while stack:
            w = stack.pop()
            for u in adj[w]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return count


def test_components_against_bfs_oracle():
    for seed in range(8):
        fw = random_window(seed)
        comps = components(fw)
        assert len(comps) == bfs_component_count(fw)
        assert sum(c.size for c in comps) == len(fw.vertices)


def test_component_partition_and_ids():
    fw = build_forest(
        [0, 1, 2, 10, 11, 12, 20],
        [(0, 1), (1, 2), (2, 0), (10, 11), (11, 12), (20, EXIT)],
    )
    comps = components(fw)
    assert [c.component_id for c in comps] == [0, 1, 2]
    assert comps[0].members == {0, 1, 2}
    assert comps[0].label == "FiniteCycle"
    assert comps[0].cycle_count == 1
    assert comps[0].boundary_arc_count == 0
    assert comps[1].label == "Truncated"
    assert comps[1].cycle_count == 0
    assert comps[1].boundary_arc_count == 1
    assert comps[2].size == 1


def test_cycle_iff_no_boundary_arcs():
    # in a partial functional graph a component holds a cycle exactly when
    # every member has an in-window jump
    for seed in range(8):
        for c in components(random_window(seed, exit_frac=0.3)):
            assert (c.cycle_count == 1) == (c.boundary_arc_count == 0)
            assert (c.label == "FiniteCycle") == (c.cycle_count == 1)


def test_classify_component_roundtrip():
    fw = random_window(3)
    comps = components(fw)
    got = classify_component(fw, comps[1].component_id)
    assert got == comps[1]
    with pytest.raises(UnknownVertex):
        classify_component(fw, len(comps))


# -- descendants ------------------------------------------------------------


def brute_descendants(fw, v, n):
    return frozenset(w for w in fw.vertices if iterate(fw, w, n) == v)


def test_descendants_oracle():
    for seed in range(6):
        fw = random_window(seed)
        rng = rng_for(seed, 0xD0)
        for _ in range(10):
            v = int(rng.integers(len(fw.vertices)))
            n = int(rng.integers(5))
            assert descendants(fw, v, n) == brute_descendants(fw, v, n)


def test_descendants_recursion():
    # D_{n+1}(v) is the preimage set of D_n(v)
    fw = random_window(11)
    rev = reverse_jump(fw)
    for v in (0, 3, 17):
        for n in range(4):
            expect = frozenset(
                u for w in descendants(fw, v, n) for u in rev.get(w, ())
            )
            assert descendants(fw, v, n + 1) == expect


def test_descendants_zero_is_self():
    fw = random_window(2)
    assert descendants(fw, 4, 0) == {4}


# -- level sets -------------------------------------------------------------


def brute_level_set(fw, v, horizon):
    members = set()
    for w in fw.vertices:
        for k in range(horizon + 1):
            a, b = iterate(fw, w, k), iterate(fw, v, k)
            if a is not None and a == b:
                members.add(w)
                break
    return frozenset(members)


def test_level_set_oracle():
    for seed in range(8):
        fw = random_window(seed)
        rng = rng_for(seed, 0x15)
        for _ in range(8):
            v = int(rng.integers(len(fw.vertices)))
            horizon = int(rng.integers(1, 8))
            members, _ = level_set(fw, v, horizon)
            assert members == brute_level_set(fw, v, horizon)


def test_level_set_symmetry_and_membership():
    fw = random_window(5)
    for v in (0, 9, 22):
        members, _ = level_set(fw, v, 6)
        assert v in members
        for w in members:
            peers, _ = level_set(fw, w, 6)
            assert v in peers


def test_level_set_matches_descendants_of_iterate():
    fw = random_window(9)
    v, horizon = 3, 5
    tr = ancestral_line(fw, v, horizon)
    k = len(tr.path) - 1
    members, _ = level_set(fw, v, horizon)
    assert members == descendants(fw, tr.path[k], k)


def test_level_set_truncation_flag():
    # some line in the component stops short of the horizon: flagged
    fw = build_forest([0, 1, 2], [(0, 2), (1, 2)])
    members, truncated = level_set(fw, 0, 1)
    assert members == {0, 1}
    assert truncated

    # every line in the component wraps a cycle, none ends: not flagged
    fw = build_forest([0, 1, 2, 3], [(0, 1), (1, 2), (2, 0), (3, 0)])
    members, truncated = level_set(fw, 3, 2)
    assert members == {2, 3}
    assert not truncated

    # own line leaves before the horizon: flagged
    members, truncated = level_set(chain(3), 0, 10)
    assert truncated


def test_level_set_members_share_height():
    for seed in (11, 12, 13):
        fw = random_window(seed, exit_frac=0.3, dangle_frac=0.3)
        rng = rng_for(seed, 0x1C)
        for c in components(fw):
            if c.cycle_count:
                continue
            ha = height(fw, c.component_id)
            pool = sorted(c.members)
            v = pool[int(rng.integers(len(pool)))]
            members, _ = level_set(fw, v, 4)
            assert len({ha.heights[w] for w in members}) == 1


def test_level_set_on_cycle_window():
    # toroidal-style window, all lines wrap a cycle, nothing truncates
    fw = build_forest([0, 1, 2, 3], [(0, 1), (1, 2), (2, 0), (3, 1)])
    members, truncated = level_set(fw, 3, 6)
    assert not truncated
    assert 3 in members


# -- heights ----------------------------------------------------------------


def test_height_decrements_along_jumps():
    for seed in range(6):
        fw = random_window(seed, exit_frac=0.35, dangle_frac=0.2)
        for c in components(fw):
            if c.cycle_count:
                with pytest.raises(CyclicComponent):
                    height(fw, c.component_id)
                continue
            ha = height(fw, c.component_id)
            assert set(ha.heights) == c.members
            assert ha.heights[ha.anchor] == 0
            assert ha.anchor == min(c.members)
            for v in c.members:
                if v in fw.jump:
                    assert ha.heights[fw.jump[v]] == ha.heights[v] - 1


def test_height_simple_tree():
    fw = build_forest([0, 1, 2, 3], [(1, 0), (2, 0), (3, 1)])
    ha = height(fw, 0)
    assert ha.heights == {0: 0, 1: 1, 2: 1, 3: 2}


def test_height_refuses_a_bool_id():
    # True == 1, so height(fw, True) answered for component 1
    fw = build_forest([0, 1, 2, 3, 5], [(1, 0), (3, 2)])
    for flag in (True, False, np.True_):
        with pytest.raises(ConfigError, match=f"^component_id must be a component id, "
                                              f"not the bool {re.escape(repr(flag))}$"):
            height(fw, flag)
    assert height(fw, 1).anchor == 2 and height(fw, np.int64(0)).anchor == 0


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda fw: level_set(fw, 2, -1), "horizon", id="level_set"),
    pytest.param(lambda fw: descendants(fw, 2, -1), "n", id="descendants"),
    pytest.param(lambda fw: ancestral_line(fw, 2, -1), "max_steps", id="ancestral_line"),
    pytest.param(lambda fw: level_set(fw, 2, 1.5), "horizon", id="level_set-float"),
    pytest.param(lambda fw: descendants(fw, 2, True), "n", id="descendants-bool"),
])
def test_bad_step_counts_are_named(call, name):
    with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
        call(chain(5))


# -- dumps ------------------------------------------------------------------


def test_dump_load_roundtrip_tuples():
    fw = build_forest(
        [(0, 0), (0, 1), (1, 0)],
        [((0, 0), (0, 1)), ((0, 1), EXIT)],
        dimension=2,
        metadata={"model": "demo", "seed": 42},
    )
    text = dump_forest(fw)
    back = load_forest(text)
    assert back.vertices == fw.vertices
    assert back.jump == fw.jump
    assert back.exits == fw.exits
    assert back.dimension == 2
    assert back.metadata["model"] == "demo"
    assert back.metadata["seed"] == 42
    assert dump_forest(back) == text


def test_dump_load_roundtrip_ints():
    fw = random_window(13)
    text = dump_forest(fw)
    back = load_forest(text)
    assert back.vertices == fw.vertices
    assert back.jump == fw.jump
    assert back.exits == fw.exits
    assert dump_forest(back) == text


def test_dump_format_shape():
    fw = build_forest([0, 1, 2], [(0, 1), (1, EXIT)], metadata={"model": "m", "seed": 7})
    lines = dump_forest(fw).splitlines()
    assert lines[0] == "dim=1 model=m seed=7"
    assert lines[1] == "0 -> 1"
    assert lines[2] == "1 -> EXIT"
    assert lines[3] == "2"
