"""The rows form of build_forest. The four samplers that hold a window's
coordinates and successor array in numpy (the lattice sampler, the discrete
strip, the strip point-map and Howard's nearest-point model) hand
build_forest those arrays. The pair-building bodies they had before, which
encoded the same rows as vertex pairs with EXIT sentinels and an interior
vertex list, are kept here as the oracles. Both must give equal windows: the same coordinates and sorted
vertices, row arrays, set and dict views, reverse map order and dump bytes.
Random coordinate arrays, given as N ints, N x 1 or N x d arrays or lists
of tuples, must build the same windows as their pairs, and the vertex
objects must stay unbuilt through the array readers.

The suites are deterministic (the profile in conftest) with a bounded
number of examples.
"""

import math
import tracemalloc
from fractions import Fraction
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmtforest.analysis import (
    SURVEY_STATISTICS,
    cluster_frequency,
    component_statistic_survey,
    in_degree_profile,
)
from cmtforest.errors import BadDimension, Empty, EmptyWindow, MalformedJump
from cmtforest.forest import (
    EXIT,
    array_vertices,
    build_forest,
    dump_forest,
    reverse_jump,
    vertex,
)
from cmtforest.lattice import (
    _ROLE_LATTICE,
    JumpDistribution,
    _det_and_adjugate,
    atom_cdf,
    even_sublattice,
    integer_lattice,
    sample_lattice_cmt,
)
from cmtforest.points import (
    _ROLE_STRIP_FIELD,
    _ROLE_STRIP_TIES,
    PointCloud,
    StripConfig,
    _axis_order,
    _howard_forest,
    discrete_strip,
    howard_model,
    sample_bernoulli,
    sample_poisson,
    strip_point_map,
)
from cmtforest.seeds import rng_for

SUITE = settings(max_examples=120)

ROW_ARRAYS = ("coords", "succ", "is_exit", "is_interior", "src", "pre", "ptr", "label", "depth")


# -- the oracles: the samplers' pair-building bodies ------------------------------


def oracle_lattice(lattice, jumps, box, seed, wrap=None, name="lattice-cmt"):
    d = lattice.dimension
    det, adj = _det_and_adjugate(lattice.basis)
    wrap = tuple(wrap) if wrap is not None else (None,) * d
    axes = [np.arange(lo, hi + 1) for lo, hi in box]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    num = grid @ np.array(adj, dtype=np.int64).T
    pts = grid[(num % det == 0).all(axis=1)]
    if len(pts) == 0:
        raise EmptyWindow("box contains no lattice points")
    rng = rng_for(seed, _ROLE_LATTICE)
    idx = np.searchsorted(atom_cdf(jumps.weights), rng.random(len(pts)), side="right")
    atoms_arr = np.array(jumps.atoms, dtype=np.int64)
    targets = pts + atoms_arr[idx]
    in_box = np.ones(len(pts), dtype=bool)
    for a in range(d):
        if wrap[a] is not None:
            targets[:, a] %= wrap[a]
        else:
            lo, hi = box[a]
            in_box &= (targets[:, a] >= lo) & (targets[:, a] <= hi)
    amin, amax = atoms_arr.min(axis=0), atoms_arr.max(axis=0)
    interior_mask = np.ones(len(pts), dtype=bool)
    for a in range(d):
        if wrap[a] is None:
            lo, hi = box[a]
            interior_mask &= (pts[:, a] >= lo - amin[a]) & (pts[:, a] <= hi - amax[a])
    vertices, tgts = array_vertices(pts), array_vertices(targets)
    return build_forest(
        vertices,
        [(v, t if ok else "EXIT") for v, t, ok in zip(vertices, tgts, in_box.tolist())],
        interior=list(compress(vertices, interior_mask.tolist())),
        dimension=d,
        metadata={"model": name, "seed": int(seed), "box": tuple(tuple(b) for b in box),
                  "wrap": wrap},
    )


def oracle_discrete_strip(p, box, seed):
    (t_lo, t_hi), (_, x_hi) = box
    length, rows = x_hi + 1, t_hi - t_lo + 1
    retained = rng_for(seed, _ROLE_STRIP_FIELD).random((rows, length)) < p
    marks = rng_for(seed, _ROLE_STRIP_TIES).random((rows, length))
    near = retained | np.roll(retained, 1, axis=1) | np.roll(retained, -1, axis=1)
    next_hit = np.full((rows + 1, length), rows, dtype=np.int64)
    for s in range(rows - 1, -1, -1):
        next_hit[s] = np.where(near[s], s, next_hit[s + 1])
    vertices = [(t_lo + r, x) for r in range(rows) for x in range(length)]
    pairs = []
    interior = []
    for r in range(rows):
        for x in range(length):
            src = (t_lo + r, x)
            if r + 1 >= rows:
                pairs.append((src, EXIT))
                continue
            hit = int(next_hit[r + 1, x])
            if hit >= rows:
                pairs.append((src, EXIT))
                continue
            tied = sorted(
                (hit, (x + dx) % length) for dx in (-1, 0, 1)
                if retained[hit, (x + dx) % length]
            )
            y = tied[int(marks[r, x] * len(tied))]
            pairs.append((src, (t_lo + y[0], y[1])))
            if hit < rows - 1:
                interior.append(src)
    return build_forest(
        vertices, pairs, interior=interior, dimension=2,
        metadata={"model": "discrete-strip", "seed": int(seed), "p": float(p),
                  "window": tuple(tuple(b) for b in box)},
    )


def oracle_strip_point_map(cloud, config):
    d = cloud.dimension
    order = _axis_order(d, config.time_axis)
    pts = np.array(cloud.points, dtype=float).reshape(len(cloud), d)[:, order]
    win = [cloud.window[a] for a in order]
    w = config.half_width
    n = len(cloud)
    t = pts[:, 0]
    jump_pairs = []
    interior = []
    for i in range(n):
        ok = t > t[i]
        for a in range(1, d):
            ok &= np.abs(pts[:, a] - pts[i, a]) <= w
        idx = np.nonzero(ok)[0]
        if len(idx) == 0:
            jump_pairs.append((i, EXIT))
            continue
        best_t = t[idx].min()
        tied = idx[t[idx] == best_t]
        j = min((int(k) for k in tied), key=lambda k: tuple(pts[k, 1:]))
        jump_pairs.append((i, j))
        inside = t[j] < win[0][1]
        for a in range(1, d):
            inside &= (pts[i, a] - w > win[a][0]) and (pts[i, a] + w < win[a][1])
        if inside:
            interior.append(i)
    return build_forest(
        range(n), jump_pairs, interior=interior, dimension=d,
        metadata={"model": "strip", "seed": cloud.seed, "half_width": w,
                  "window": cloud.window},
    )


def oracle_howard(cloud, seed):
    slices = {}
    for p in cloud.points:
        slices.setdefault(p[0], []).append(p[1:])
    space = cloud.window[1:]
    pairs = []
    interior = []
    for p in sorted(cloud.points):
        t, x = p[0], p[1:]
        cand = slices.get(t + 1)
        if not cand:
            pairs.append((p, EXIT))
            continue
        dists = [sum(abs(a - b) for a, b in zip(x, y)) for y in cand]
        best = min(dists)
        tied = sorted(y for y, dd in zip(cand, dists) if dd == best)
        if len(tied) == 1:
            y = tied[0]
        else:
            y = tied[int(rng_for(seed, len(p), *p).integers(len(tied)))]
        pairs.append((p, (t + 1,) + tuple(y)))
        if all(lo <= xa - best and xa + best <= hi for xa, (lo, hi) in zip(x, space)):
            interior.append(p)
    return build_forest(
        sorted(cloud.points), pairs, interior=interior, dimension=cloud.dimension,
        metadata={"model": "howard", "seed": int(seed), "p": cloud.parameter,
                  "window": cloud.window},
    )


def assert_same_window(fw, want):
    assert fw.verts == want.verts
    for name in ROW_ARRAYS:
        got, exp = getattr(fw, name), getattr(want, name)
        assert got.dtype == exp.dtype and np.array_equal(got, exp), name
    assert (fw.vertices, fw.exits, fw.interior) == (want.vertices, want.exits, want.interior)
    assert list(fw.jump.items()) == list(want.jump.items())
    assert list(reverse_jump(fw).items()) == list(reverse_jump(want).items())
    assert (fw.dimension, fw.metadata) == (want.dimension, want.metadata)
    assert dump_forest(fw) == dump_forest(want)


def outcome(build):
    try:
        return build(), None
    except EmptyWindow as e:
        return None, str(e)


# -- lattice windows -----------------------------------------------------------------


@st.composite
def lattice_windows(draw):
    """(lattice, jumps, box, wrap): d = 1-4, the integer or the even lattice,
    unequal weights, and no wrap, a partial wrap or a full torus."""
    d = draw(st.integers(1, 4))
    even = draw(st.booleans())
    lattice = even_sublattice(d) if even else integer_lattice(d)
    coord = st.integers(-2, 2)
    atom = st.tuples(*[coord] * d).filter(lambda a: not even or sum(a) % 2 == 0)
    atoms = draw(st.lists(atom, min_size=1, max_size=4, unique=True))
    raw = draw(st.lists(st.integers(1, 5), min_size=len(atoms), max_size=len(atoms)))
    jumps = JumpDistribution(tuple(atoms), tuple(Fraction(w, sum(raw)) for w in raw))
    side = {1: 12, 2: 7, 3: 4, 4: 3}[d]
    box, wrap = [], []
    for _ in range(d):
        if draw(st.booleans()):  # m * e_a is in the even lattice iff m is even
            m = draw(st.integers(1, side // 2)) * 2 if even else draw(st.integers(1, side))
            box.append((0, m - 1))
            wrap.append(m)
        else:
            lo = draw(st.integers(-3, 2))
            box.append((lo, lo + draw(st.integers(0, side - 1))))
            wrap.append(None)
    return lattice, jumps, box, tuple(wrap) if any(wrap) or draw(st.booleans()) else None


@SUITE
@given(lattice_windows(), st.integers(0, 2**32))
def test_lattice_rows_equal_pairs(window, seed):
    lattice, jumps, box, wrap = window
    fw, err = outcome(lambda: sample_lattice_cmt(lattice, jumps, box, seed, wrap=wrap))
    want, want_err = outcome(lambda: oracle_lattice(lattice, jumps, box, seed, wrap=wrap))
    assert err == want_err
    if not err:
        assert_same_window(fw, want)


# -- discrete strips -------------------------------------------------------------------


@SUITE
@given(st.integers(3, 12), st.sampled_from([0.01, 0.05, 0.3, 0.5, 0.95, 0.99, 1.0]),
       st.integers(-5, 5), st.integers(0, 14), st.integers(0, 2**32))
def test_discrete_strip_rows_equal_pairs(length, p, t_lo, height, seed):
    box = [(t_lo, t_lo + height), (0, length - 1)]
    assert_same_window(discrete_strip(p, box, seed), oracle_discrete_strip(p, box, seed))


def test_discrete_strip_one_row_box_is_all_exits():
    fw = discrete_strip(0.5, [(4, 4), (0, 5)], seed=3)
    assert_same_window(fw, oracle_discrete_strip(0.5, [(4, 4), (0, 5)], seed=3))
    assert fw.exits == fw.vertices and not fw.interior


# -- Poisson strip clouds ------------------------------------------------------------


@SUITE
@given(st.integers(2, 3), st.sampled_from([0.5, 2.0, 6.0]), st.sampled_from([0.3, 1.0, 2.5]),
       st.integers(0, 2), st.integers(0, 2**32))
def test_strip_point_map_rows_equal_pairs(d, intensity, half_width, time_axis, seed):
    rectangle = [(0.0, 4.0), (-1.0, 2.0), (0.0, 1.5)][:d]
    cloud = sample_poisson(intensity, rectangle, seed)
    config = StripConfig(half_width, time_axis % d)
    assert_same_window(strip_point_map(cloud, config), oracle_strip_point_map(cloud, config))


def _ulps(x, k):
    """The float k steps of one ulp from x."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


@st.composite
def strip_edge_clouds(draw):
    """(cloud, config) with what a Poisson draw never gives the sweep: equal
    times, distances of exactly w, coincident points (allowed under kind
    "bernoulli", and the id tie-break decides between them), coordinates
    one ulp either side of k*w and of the sweep's power-of-two cell edges,
    and w = 1e-9 beside coordinates near 1e9 or 1e300, whose cells are past
    int64. d = 1-3, every time axis, n from 0."""
    d = draw(st.integers(1, 3))
    case = draw(st.sampled_from(["integers", "cell-edges", "far"]))
    if case == "integers":
        w = float(draw(st.integers(1, 2)))
        coord = st.integers(0, 4)
    elif case == "cell-edges":
        w = draw(st.sampled_from([1.0, 0.1, 0.3, 2.5, _ulps(0.5, -1), _ulps(2.0, 1)]))
        coord = st.builds(lambda k, u: _ulps(k * w, u), st.integers(-3, 3), st.integers(-1, 1))
    else:
        w = 1e-9
        base = draw(st.sampled_from([0.0, 1e9, -1e9, 1e300]))
        coord = st.one_of(st.builds(lambda k: _ulps(base, k), st.integers(-2, 2)),
                          st.builds(lambda k, u: _ulps(k * w, u), st.integers(-2, 2),
                                    st.integers(-1, 1)))
    points = draw(st.lists(st.tuples(*[coord] * d), max_size=30))
    margin = draw(st.sampled_from([0, w, 3 * w]))
    window = [(min(c) - margin, max(c) + margin) for c in zip(*points)] or [(0, 1)] * d
    kind = "poisson" if len(set(points)) == len(points) else "bernoulli"
    cloud = PointCloud(points, window, kind, 1.0, 0)
    return cloud, StripConfig(w, draw(st.integers(0, d - 1)))


@settings(max_examples=300)
@given(strip_edge_clouds())
def test_strip_point_map_edge_clouds_equal_scan(case):
    cloud, config = case
    assert_same_window(strip_point_map(cloud, config), oracle_strip_point_map(cloud, config))


# -- Howard's nearest-point model ------------------------------------------------------


@st.composite
def howard_clouds(draw):
    """(cloud, seed): a Bernoulli cloud on a box of d = 2-4 axes, one to six
    time slices, with p in (0, 1]; some clouds lose a whole time slice, so
    their sources below it find no next slice."""
    d = draw(st.integers(2, 4))
    side = {2: 9, 3: 5, 4: 3}[d]
    t_lo = draw(st.integers(-3, 3))
    box = [(t_lo, t_lo + draw(st.integers(0, 5)))]
    for _ in range(d - 1):
        lo = draw(st.integers(-4, 2))
        box.append((lo, lo + draw(st.integers(0, side))))
    p = draw(st.sampled_from([0.05, 0.3, 0.5, 0.8, 1.0]))
    cloud = sample_bernoulli(p, box, draw(st.integers(0, 2**32)))
    gap = draw(st.one_of(st.none(), st.integers(*box[0])))
    if gap is not None:
        cloud = PointCloud(cloud.coords[cloud.coords[:, 0] != gap], box, "bernoulli", p,
                           cloud.seed)
    return cloud, draw(st.integers(0, 2**32))


@SUITE
@given(howard_clouds())
def test_howard_rows_equal_pairs(case):
    cloud, seed = case
    fw, want = _howard_forest(cloud, seed), oracle_howard(cloud, seed)
    if len(cloud):
        assert_same_window(fw, want)
    else:  # the pair form gives an empty window one coordinate column
        assert dump_forest(fw) == dump_forest(want) and fw.metadata == want.metadata


def test_howard_distances_are_taken_in_blocks():
    cloud = sample_bernoulli(1.0, [(0, 1), (0, 5000)], 3)
    tracemalloc.start()
    try:
        fw = _howard_forest(cloud, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20  # one 5,001 x 5,001 int64 distance array is 191 MiB
    assert fw.succ[:5001].tolist() == list(range(5001, 10002))


# -- the rows form's named errors ------------------------------------------------------


def rows(*values):
    return np.array(values, dtype=np.int64)


@pytest.mark.parametrize("vertices, succ, interior, match", [
    ([1, 0], rows(-1, -1), None, "sorted and distinct"),
    ([0, 0, 1], rows(-1, -1, -1), None, "sorted and distinct"),
    ([(0, 1), (0, 0)], rows(-1, 0), None, "sorted and distinct"),
    ([0, 1, 2], rows(-1, 0), None, "3 int rows"),
    ([0, 1], rows(-1, 0, 1), None, "2 int rows"),
    ([0, 1], np.array([[-1, 0]]), None, "2 int rows"),
    ([0, 1], np.array([-1.0, 0.0]), None, "int rows"),
    ([0, 1], np.array([False, True]), None, "int rows"),
    ([0, 1], rows(-2, 0), None, r"outside \[-1, 2\)"),
    ([0, 1], rows(2, 0), None, r"outside \[-1, 2\)"),
    ([0, 1], rows(1, 0), np.array([1, 0]), "bool mask"),
    ([0, 1], rows(1, 0), np.array([True]), "bool mask"),
    ([0, 1], rows(1, 0), [True, False], "bool mask"),
])
def test_rows_form_malformed_raises_naming_it(vertices, succ, interior, match):
    with pytest.raises(MalformedJump, match=match):
        build_forest(vertices, succ, interior=interior)


def test_rows_form_unorderable_vertices_raise_bad_dimension():
    with pytest.raises(BadDimension):
        build_forest([0, (1, 2)], rows(-1, -1))


@pytest.mark.parametrize("vertices", [
    [0.0, 1.0],
    [True, False],
    ["a", "b"],
    [2**63, 2**64],
    np.zeros((2, 1, 1), dtype=np.int64),
    np.zeros((2, 0), dtype=np.int64),
    iter([0, 1]),
])
def test_rows_form_non_int_coordinates_raise_bad_dimension(vertices):
    with pytest.raises(BadDimension):
        build_forest(vertices, rows(-1, -1))


def test_rows_form_every_vertex_has_a_jump():
    fw = build_forest(range(4), rows(2, -1, 2, 0), interior=np.array([True, True, False, True]))
    assert fw.exits == {1}
    assert fw.interior == {0, 3}  # row 1 exits, so the mask drops it
    assert list(fw.jump.items()) == [(0, 2), (2, 2), (3, 0)]
    assert fw.src.tolist() == [0, 2, 3]


def test_rows_form_empty_window():
    fw = build_forest([], rows())
    assert len(fw) == 0 and not fw.jump and not fw.exits


def test_rows_form_does_not_alias_the_callers_array():
    succ = rows(1, -1)
    fw = build_forest([0, 1], succ)
    succ[0] = -1
    assert fw.succ.tolist() == [1, -1]


def test_rows_form_one_tuples_give_int_vertices():
    fw = build_forest([(0,), (2,)], rows(1, -1))
    assert fw.verts == (0, 2) and dict(fw.jump) == {0: 2}


# -- coordinate arrays ------------------------------------------------------------------


@st.composite
def coordinate_windows(draw):
    """Sorted distinct points (d = 1-4) with random successor rows and interior;
    an empty window has no dimension in the pair form, so n >= 1."""
    d = draw(st.integers(1, 4))
    pts = sorted(set(draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1,
                                   max_size=25))))
    n = len(pts)
    succ = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    interior = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return pts, np.array(succ, dtype=np.int64), np.array(interior, dtype=bool)


@SUITE
@given(coordinate_windows())
def test_coordinate_rows_equal_pairs(case):
    pts, succ, interior = case
    c = np.array(pts, dtype=np.int64).reshape(len(pts), -1)
    verts = array_vertices(c)
    meta = {"model": "coords", "seed": 3}
    want = build_forest(verts, [(v, verts[t] if t >= 0 else EXIT)
                                for v, t in zip(verts, succ.tolist())],
                        interior=list(compress(verts, interior.tolist())), dimension=c.shape[1],
                        metadata=meta)
    forms = [c, pts] + ([c[:, 0], c[:, 0].tolist()] if c.shape[1] == 1 else [])
    for form in forms:
        assert_same_window(build_forest(form, succ, interior=interior, dimension=c.shape[1],
                                        metadata=meta), want)


@SUITE
@given(arrays(np.int64, st.tuples(st.integers(0, 20), st.integers(1, 4))))
def test_array_vertices_reads_columns(a):
    got = array_vertices(a)
    assert got == list(map(vertex, map(tuple, a.tolist())))
    assert all(type(x) is (int if a.shape[1] == 1 else tuple) for x in got)
    assert all(type(c) is int for v in got if a.shape[1] > 1 for c in v)


TORUS = (integer_lattice(2), JumpDistribution(((1, 0), (0, 1), (-1, 1)), (Fraction(1, 3),) * 3),
         [(0, 5), (0, 6)])


@pytest.mark.parametrize("sample", [
    pytest.param(lambda: sample_lattice_cmt(*TORUS, 4, wrap=(6, 7)), id="lattice"),
    pytest.param(lambda: discrete_strip(0.4, [(0, 9), (0, 7)], 4), id="discrete-strip"),
    pytest.param(lambda: strip_point_map(sample_poisson(3.0, [(0.0, 4.0), (0.0, 2.0)], 4),
                                         StripConfig(0.5)), id="strip"),
    pytest.param(lambda: howard_model(0.5, [(0, 9), (0, 7)], 4), id="howard"),
])
def test_array_readers_build_no_vertex_objects(sample):
    fw = sample()
    for statistic in SURVEY_STATISTICS:
        try:
            component_statistic_survey(fw, statistic, 1)
        except Empty:  # every component of a torus has a cycle, so no height range
            assert statistic == "height-range-per-size"
    in_degree_profile(fw)
    if fw.metadata.get("wrap"):
        cluster_frequency(fw, 0, 200, 4)
    assert "verts" not in fw.__dict__ and "_row" not in fw.__dict__
