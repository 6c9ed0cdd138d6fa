"""The component readers that take membership from a window's arrays
(component ids `comp`, depths, and the rows-per-component CSR) against the
bodies they replaced, which read the member frozensets of `components()`
or vertex dicts, and are kept here as oracles.

Each suite is deterministic and compares results, or the error type and
message wherever the oracle raises, on random partial functional graphs
(cycles, exits, missing jumps, int and tuple vertices, random interiors)
and on sampled lattice windows and tori.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_forest_core import windows

from cmtforest import analysis, cli, models
from cmtforest.analysis import (
    _ROLE_ORDER,
    _ROLE_WALK,
    SURVEY_STATISTICS,
    LevelAverage,
    LevelBijection,
    ProbeReport,
    _coefficient_of_variation,
    canopy_distinguishability_demo,
    cluster_frequency,
    component_statistic_survey,
    level_set_bijection,
    nested_level_average,
    right_stable_allocation,
)
from cmtforest.errors import (
    ConfigError,
    CyclicComponent,
    Empty,
    NeedsTorus,
    UnknownVertex,
    _check_steps,
)
from cmtforest.forest import (
    EXIT,
    HeightAssignment,
    array_vertices,
    build_forest,
    classify_component,
    component_heights,
    components,
    coords,
    height,
    level_set,
    vertex,
)
from cmtforest.lattice import integer_lattice, sample_lattice_cmt, uniform_jumps
from cmtforest.models import canopy_cmt
from cmtforest.seeds import rng_for

SUITE = settings(derandomize=True, max_examples=120, deadline=None, database=None)


# -- oracles: the readers as they were, over components() members ------------------


def oracle_component_heights(forest, anchor):
    r = forest.row.get(anchor)
    if r is None:
        raise UnknownVertex(repr(anchor))
    if forest.depth[r] < 0:
        raise CyclicComponent(f"the component of {anchor!r} contains a cycle")
    members = sorted(components(forest)[forest.comp[r]].members)
    return {v: int(forest.depth[forest.row[v]] - forest.depth[r]) for v in members}


def oracle_height(forest, component_id):
    comp = classify_component(forest, component_id)
    if comp.cycle_count:
        raise CyclicComponent(f"component {component_id} contains a cycle")
    anchor = min(comp.members)
    heights = oracle_component_heights(forest, anchor)
    return HeightAssignment(component_id=component_id, anchor=anchor, heights=heights)


def oracle_jump_counts(forest, members):
    counts = {}
    for v in sorted(members):
        t = forest.jump.get(v)
        if t is not None:
            a = vertex(tuple(y - x for x, y in zip(coords(v), coords(t))))
            counts[a] = counts.get(a, 0) + 1
    return counts


def oracle_survey(forest, statistic, min_size):
    if statistic not in SURVEY_STATISTICS:
        raise ConfigError(f"unknown statistic {statistic!r}")
    if min_size < 1:
        raise ConfigError("min_size must be at least one")
    comps = [c for c in components(forest) if c.size >= min_size]
    if statistic == "height-range-per-size":
        comps = [c for c in comps if c.cycle_count == 0]
    if not comps:
        raise Empty("no qualifying component")

    details = {"statistic": statistic, "min_size": min_size, "component_count": len(comps)}
    if statistic == "jump-frequency-vector":
        per_comp = [oracle_jump_counts(forest, c.members) for c in comps]
        alphabet = sorted({a for counts in per_comp for a in counts}, key=repr)
        values = []
        for counts in per_comp:
            total = sum(counts.values())
            values.append(
                tuple(counts.get(a, 0) / total if total else 0.0 for a in alphabet)
            )
        cols = list(zip(*values)) if values else []
        cvs = tuple(_coefficient_of_variation(col) for col in cols)
        details["alphabet"] = [str(a) for a in alphabet]
        details["cv_vector"] = list(cvs)
        details["cv"] = max(cvs) if cvs else 0.0
    else:
        if statistic == "mean-in-degree":
            counts = [c.size - c.boundary_arc_count for c in comps]
        else:
            if statistic == "leaf-fraction":
                leaves = forest.comp[np.diff(forest.ptr) == 0]
                per_comp = np.bincount(leaves, minlength=len(components(forest)))
            else:
                per_comp = np.zeros(len(components(forest)), dtype=np.int64)
                np.maximum.at(per_comp, forest.comp, forest.depth)
            counts = per_comp[[c.component_id for c in comps]].tolist()
        values = [k / c.size for k, c in zip(counts, comps)]
        details["cv"] = _coefficient_of_variation(values)

    truncated = sum(1 for c in comps if c.boundary_arc_count > 0)
    return ProbeReport(
        probe="component-statistic-survey",
        units=tuple(c.component_id for c in comps),
        values=tuple(values),
        half_widths=(0.0,) * len(comps),
        trials=tuple(c.size for c in comps),
        truncation_fraction=truncated / len(comps),
        details=details,
    )


def _minimal_residue(diff, length):
    r = diff % length
    return r - length if 2 * r > length else r


def oracle_cluster_frequency(forest, component_id, walk_steps, seed):
    wrap = forest.metadata.get("wrap")
    if not wrap or any(w is None for w in wrap):
        raise NeedsTorus("forest window is not toroidal on every axis")
    if not 0 <= component_id < len(components(forest)):
        raise ConfigError(f"component_id {component_id}: no such component")
    box = forest.metadata["box"]
    lows = np.array([lo for lo, hi in box], dtype=np.int64)
    lens = np.array([hi - lo + 1 for lo, hi in box], dtype=np.int64)

    incs = set()
    for src, dst in forest.jump.items():
        a, b = coords(src), coords(dst)
        incs.add(tuple(_minimal_residue(int(y - x), int(n)) for x, y, n in zip(a, b, lens)))
    moves = sorted(incs | {tuple(-c for c in inc) for inc in incs})
    moves_arr = np.array(moves, dtype=np.int64)

    rng = rng_for(seed, _ROLE_WALK)
    hold = rng.random(walk_steps) < 0.5
    idx = rng.integers(0, len(moves), size=walk_steps)
    disp = moves_arr[idx] * (~hold)[:, None]
    start = np.array(coords(forest.verts[0]), dtype=np.int64)
    pos = (start + np.cumsum(disp, axis=0) - lows) % lens + lows
    pos = np.vstack([start[None, :], pos])

    hits = forest.comp[[forest.row[k] for k in array_vertices(pos)]] == component_id
    freq = float(hits.mean())

    blocks = 100
    usable = (len(hits) // blocks) * blocks
    block_means = hits[:usable].reshape(blocks, -1).mean(axis=1)
    half = 4.0 * float(block_means.std(ddof=1)) / math.sqrt(blocks)
    return ProbeReport(
        probe="cluster-frequency",
        units=(component_id,),
        values=(freq,),
        half_widths=(half,),
        trials=(walk_steps,),
        truncation_fraction=0.0,
        details={"component_id": component_id, "walk_steps": walk_steps, "seed": seed},
    )


def oracle_level_set_bijection(forest, seed):
    domain = forest.vertices_of(np.flatnonzero(forest.is_interior))
    wrap = forest.metadata.get("wrap")
    toroidal = bool(wrap) and all(w is not None for w in wrap)
    if toroidal:
        for x in domain:
            if coords(forest.jump[x])[-1] == coords(x)[-1]:
                raise CyclicComponent(f"jump of {x!r} stays on its own level")
        level = {v: coords(v)[-1] for v in forest.verts}
    else:
        domain_set = set(domain)
        level = {}
        for c in components(forest):
            if c.cycle_count:
                if c.members & domain_set:
                    raise CyclicComponent("bijection needs cycle-free components")
                continue
            for v, h in oracle_component_heights(forest, min(c.members)).items():
                level[v] = (c.component_id, h)
    rng = rng_for(seed, _ROLE_ORDER)

    rows = {}
    for v, key in level.items():
        rows.setdefault(key, []).append(v)
    for key in rows:
        rows[key].sort()

    groups = {}
    for x in domain:
        groups.setdefault(level[forest.jump[x]], []).append(x)

    matching = {}
    unmatched = set()
    for parent_key, childs in sorted(groups.items()):
        parents = rows[parent_key]
        pos = {p: i for i, p in enumerate(parents)}
        by_parent = {}
        for x in sorted(childs):
            by_parent.setdefault(forest.jump[x], []).append(x)
        ordered = []
        for p in sorted(by_parent, key=lambda q: pos[q]):
            sibs = by_parent[p]
            order = rng.permutation(len(sibs))
            ordered.extend(sibs[i] for i in order)
        got, missed = right_stable_allocation(
            ordered, parents, {x: forest.jump[x] for x in childs}
        )
        matching.update(got)
        unmatched.update(missed)
    return LevelBijection(matching=matching, unmatched=frozenset(unmatched))


def oracle_default_start(forest):
    return min(forest.interior or forest.vertices)


def oracle_nested_level_average(forest, f, v, n_max):
    _check_steps("n_max", n_max)
    (r,) = forest.rows_of([v])
    if forest.depth[r] < 0:
        raise CyclicComponent("nested averages need a cycle-free component")
    line = [r]
    while len(line) <= n_max and forest.succ[line[-1]] >= 0:
        line.append(int(forest.succ[line[-1]]))
    out = []
    for n, top in enumerate(line):
        rows = np.array([top])
        clean = forest.is_interior[top]
        for _ in range(n):
            clean = clean and forest.is_interior[rows].all()
            rows = forest.preimages(rows)
        level = forest.vertices_of(rows)
        if not level:
            break
        value = math.fsum(float(f(w)) for w in level) / len(level)
        out.append(LevelAverage(n=n, value=value, count=len(level), truncated=not clean))
    return out


def oracle_canopy_demo(depth, seed):
    forest, invariant = analysis.canopy_cmt(depth, seed)  # the sampler the demo calls
    constant = True
    per_set = {}
    for v in forest.verts:
        for n in range(1, depth + 2):
            members, _ = level_set(forest, v, n)
            vals = {invariant[w] for w in members}
            if len(vals) > 1:
                constant = False
            per_set[(min(members), n)] = vals
    observed = sorted({v for vals in per_set.values() for v in vals})
    return ProbeReport(
        probe="canopy-distinguishability",
        units=tuple(observed),
        values=tuple(float(v) for v in observed),
        half_widths=(0.0,) * len(observed),
        trials=(1,) * len(observed),
        truncation_fraction=0.0,
        details={
            "depth": depth,
            "seed": seed,
            "all_constant": constant,
            "distinct_count": len(observed),
        },
    )


# -- helpers ------------------------------------------------------------------------


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


def same(new, old, *args):
    assert outcome(new, *args) == outcome(old, *args)


@st.composite
def interior_windows(draw):
    """A random window, rebuilt with a drawn interior (or the default), so
    cyclic components may lie inside or outside the interior."""
    fw = draw(windows())
    if draw(st.booleans()):
        return fw
    pairs = list(fw.jump.items()) + [(v, EXIT) for v in sorted(fw.exits)]
    keep = draw(st.lists(st.booleans(), min_size=len(fw), max_size=len(fw)))
    return build_forest(fw.verts, pairs, interior=[v for v, k in zip(fw.verts, keep) if k])


ATOMS_2D = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                    min_size=1, max_size=3, unique=True)


@st.composite
def lattice_windows(draw, wrapped):
    """A sampled 2-D lattice window: a torus when wrapped, else a box with
    its first axis wrapped or not."""
    sides = [draw(st.integers(1, 5)) for _ in range(2)]
    wrap = tuple(sides) if wrapped else (sides[0] if draw(st.booleans()) else None, None)
    return sample_lattice_cmt(integer_lattice(2), uniform_jumps(draw(ATOMS_2D)),
                              [(0, s - 1) for s in sides], draw(st.integers(0, 2**32)),
                              wrap=wrap)


# -- the gates ----------------------------------------------------------------------


@SUITE
@given(st.one_of(windows(), lattice_windows(False), lattice_windows(True)))
def test_survey_equals_oracle(fw):
    for statistic in SURVEY_STATISTICS:
        for min_size in (0, 1, 2, 3, 5):
            same(component_statistic_survey, oracle_survey, fw, statistic, min_size)


@SUITE
@given(st.one_of(windows(), lattice_windows(False)))
def test_heights_equal_oracle(fw):
    n = len(components(fw))
    for cid in range(-1, n + 1):
        got, want = outcome(height, fw, cid), outcome(oracle_height, fw, cid)
        assert got == want
        if isinstance(want, HeightAssignment):  # the same vertex order too
            assert list(got.heights.items()) == list(want.heights.items())
    for v in list(fw.verts) + [(99, 99), 99]:
        got = outcome(component_heights, fw, v)
        assert got == outcome(oracle_component_heights, fw, v)
        if isinstance(got, dict):
            assert list(got) == sorted(got)


@SUITE
@given(lattice_windows(False))
def test_height_builds_no_vertex_row_map(fw):
    # height reads its component's rows; the vertex -> row dict stays unbuilt
    for cid in range(len(components(fw))):
        outcome(height, fw, cid)
    assert "row" not in fw.__dict__


@SUITE
@given(st.one_of(lattice_windows(True), lattice_windows(False)),
       st.integers(100, 400), st.integers(0, 2**32))
def test_cluster_frequency_equals_oracle(fw, walk_steps, seed):
    for cid in range(-1, len(components(fw)) + 1):
        same(cluster_frequency, oracle_cluster_frequency, fw, cid, walk_steps, seed)


@SUITE
@given(st.one_of(interior_windows(), lattice_windows(False), lattice_windows(True)),
       st.integers(0, 2**32))
def test_level_set_bijection_equals_oracle(fw, seed):
    got = outcome(level_set_bijection, fw, seed)
    want = outcome(oracle_level_set_bijection, fw, seed)
    assert got == want
    if isinstance(want, LevelBijection):  # dict equality ignores the matching's order
        assert list(got.matching.items()) == list(want.matching.items())


@SUITE
@given(st.one_of(lattice_windows(False), lattice_windows(True)), st.integers(0, 2**32))
def test_bijection_builds_no_vertex_dicts(fw, seed):
    # the bijection reads rows; the jump view and the vertex -> row dict stay unbuilt
    outcome(level_set_bijection, fw, seed)
    assert "jump" not in fw.__dict__ and "row" not in fw.__dict__


@st.composite
def canopy_windows(draw):
    """A canopy window, whose lines are long and whose backward sets grow,
    with its interior redrawn row by row or kept."""
    fw, _ = canopy_cmt(draw(st.integers(1, 6)), draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        return fw
    keep = draw(st.lists(st.booleans(), min_size=len(fw), max_size=len(fw)))
    return build_forest(fw.coords, fw.succ, interior=np.array(keep), dimension=2,
                        metadata=fw.metadata)


@st.composite
def nested_calls(draw):
    """A window, a start (a window vertex, or one it lacks) and an n_max."""
    fw = draw(st.one_of(interior_windows(), lattice_windows(False), canopy_windows()))
    start = draw(st.sampled_from(list(fw.verts) + [(99, 99), 99]))
    return fw, start, draw(st.integers(0, 6) | st.sampled_from([-1, True, 2.0]))


@settings(SUITE, max_examples=300)
@given(nested_calls())
def test_nested_level_average_equals_oracle(call):
    fw, start, n_max = call
    f = lambda w: 0.1 * sum(coords(w)) + 1  # noqa: E731
    same(nested_level_average, oracle_nested_level_average, fw, f, start, n_max)


@pytest.mark.parametrize("depth", range(1, 5))
def test_canopy_demo_equals_oracle_on_a_varying_invariant(depth, monkeypatch):
    # the canopy invariant is constant on level sets; numbering the rows
    # instead makes some level set of two or more rows see two values
    def numbered(depth, seed):
        fw, _ = models.canopy_cmt(depth, seed)
        return fw, dict(zip(fw.verts, range(len(fw))))

    monkeypatch.setattr(analysis, "canopy_cmt", numbered)
    got = canopy_distinguishability_demo(depth, 7)
    assert got == oracle_canopy_demo(depth, 7)
    assert got.details["all_constant"] is False


@pytest.mark.parametrize("depth", range(1, 9))
@settings(SUITE, max_examples=3)
@given(st.integers(0, 2**64 - 1))
def test_canopy_demo_equals_oracle(depth, seed):
    same(canopy_distinguishability_demo, oracle_canopy_demo, depth, seed)


@SUITE
@given(st.one_of(interior_windows(), lattice_windows(False)))
def test_nested_parity_default_start_equals_oracle(fw):
    # rows are sorted, so the first interior row (or row 0) is the least vertex
    assume(len(fw))
    probe = {"start": None, "n_max": 3}
    want = outcome(cli._nested_parity, dict(probe, start=list(coords(oracle_default_start(fw)))),
                   fw)
    assert outcome(cli._nested_parity, probe, fw) == want


def test_gates_meet_every_branch():
    # the suites above reach the branches the rewrite touched: a cyclic
    # component inside the bijection's domain and one outside it, and
    # components with and without height assignments
    ring = build_forest([0, 1, 2, 5, 6], [(0, 1), (1, 2), (2, 0), (5, 6)], interior=[5])
    assert outcome(level_set_bijection, ring, 1) == outcome(oracle_level_set_bijection, ring, 1)
    assert level_set_bijection(ring, 1) == LevelBijection({5: 6}, frozenset())
    inside = build_forest([0, 1, 2, 5, 6], [(0, 1), (1, 2), (2, 0), (5, 6)])
    assert outcome(level_set_bijection, inside, 1) == (
        CyclicComponent, "bijection needs cycle-free components")
    assert outcome(height, ring, 0) == (CyclicComponent, "component 0 contains a cycle")
    assert height(ring, 1) == HeightAssignment(1, 5, {5: 0, 6: -1})
    assert outcome(height, ring, 2) == (UnknownVertex, "'no component 2'")
