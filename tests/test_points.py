"""Point-cloud and point-map checks: sampler statistics against binomial
and Poisson oracles, the strip map against a full-scan oracle, slice
nearest-point behavior with tie frequencies, and the cylinder strip
against its explicit kernel."""

import math

import numpy as np
import pytest

from cmtforest.analysis import level_set_bijection
from cmtforest.errors import BadDimension, ConfigError, CyclicComponent
from cmtforest.forest import box_grid, build_forest
from cmtforest.graphs import complete_graph, cycle_graph
from cmtforest.lattice import JumpDistribution, integer_lattice, sample_lattice_cmt
from cmtforest.models import (
    SpaceTimeGraph,
    canopy_cmt,
    coalescing_mc,
    coalescing_srw,
    voter_stationary,
)
from cmtforest.points import (
    _ROLE_BERNOULLI,
    _ROLE_POISSON,
    PointCloud,
    StripConfig,
    _howard_forest,
    discrete_strip,
    dump_cloud,
    howard_model,
    level_csv,
    sample_bernoulli,
    sample_poisson,
    strip_point_map,
)
from cmtforest.seeds import rng_for
from cmtforest.wusf import conditional_wilson, lerw, wilson_ust


def band(freq, p, n, sigmas=4):
    return abs(freq - p) <= sigmas * math.sqrt(p * (1 - p) / n)


# -- clouds ---------------------------------------------------------------------


def test_bernoulli_extremes():
    box = [(0, 4), (0, 4)]
    assert len(sample_bernoulli(0.0, box, seed=1)) == 0
    full = sample_bernoulli(1.0, box, seed=1)
    assert len(full) == 25
    assert full.points[0] == (0, 0) and full.points[-1] == (4, 4)


def test_bernoulli_count_band_and_determinism():
    box = [(0, 99), (0, 999)]  # 10^5 sites
    cloud = sample_bernoulli(0.3, box, seed=12)
    assert band(len(cloud) / 1e5, 0.3, 1e5)
    again = sample_bernoulli(0.3, box, seed=12)
    assert cloud.points == again.points
    assert dump_cloud(cloud) == dump_cloud(again)


def test_bernoulli_rejects_bad_p():
    with pytest.raises(ConfigError):
        sample_bernoulli(1.5, [(0, 3)], seed=0)


def test_poisson_zero_intensity_empty():
    assert len(sample_poisson(0.0, [(0.0, 1.0), (0.0, 1.0)], seed=3)) == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_point_process_inputs_are_named(bad):
    with pytest.raises(ConfigError, match="^intensity must be a finite number"):
        sample_poisson(bad, [(0.0, 1.0), (0.0, 1.0)], seed=3)
    with pytest.raises(ConfigError, match="^half_width must be a finite number"):
        StripConfig(bad)


@pytest.mark.parametrize("seed", [1.5, "3", None, True])
@pytest.mark.parametrize("sample", [
    lambda seed: sample_poisson(1.0, [(0.0, 1.0), (0.0, 1.0)], seed),
    lambda seed: sample_bernoulli(0.5, [(0, 3), (0, 3)], seed),
    lambda seed: discrete_strip(0.5, [(0, 3), (0, 3)], seed),
    lambda seed: howard_model(0.5, [(0, 3), (0, 3)], seed),
    lambda seed: sample_lattice_cmt(integer_lattice(1), JumpDistribution(((1,),), (1,)),
                                    [(0, 3)], seed),
    lambda seed: wilson_ust(complete_graph(4), 0, seed),
    lambda seed: conditional_wilson(complete_graph(4), [0, 1], seed),
    lambda seed: lerw(cycle_graph(5), 0, {2}, seed),
    lambda seed: coalescing_srw(SpaceTimeGraph(cycle_graph(4), (0, 3)), seed),
    lambda seed: coalescing_mc(SpaceTimeGraph(cycle_graph(4), (0, 3)),
                               {x: {(x - 1) % 4: 0.5, (x + 1) % 4: 0.5} for x in range(4)},
                               {x: 1.0 for x in range(4)}, seed),
    lambda seed: voter_stationary(complete_graph(3), 2, seed),
    lambda seed: canopy_cmt(3, seed),
    lambda seed: level_set_bijection(canopy_cmt(3, 1)[0], seed),
], ids=["poisson", "bernoulli", "discrete-strip", "howard", "lattice", "wilson",
        "conditional-wilson", "lerw", "coalescing-srw", "coalescing-mc", "voter", "canopy",
        "level-set-bijection"])
def test_sampler_seed_must_be_an_integer(sample, seed):
    with pytest.raises(ConfigError, match=f"^seed must be an integer, got {seed!r}$"):
        sample(seed)


@pytest.mark.parametrize("rectangle", [[(0.0, 3.0), (-1.0, 2.0)], [(0.0, 20.0)],
                                       [(0.0, 2.0), (0.0, 2.0), (0.0, 1.5)]])
@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_poisson_points_are_the_per_float_tuples(rectangle, seed):
    rng = rng_for(seed, _ROLE_POISSON)
    n = int(rng.poisson(2.0 * math.prod(hi - lo for lo, hi in rectangle)))
    coords = [rng.uniform(lo, hi, size=n) for lo, hi in rectangle]
    want = tuple(tuple(float(c[i]) for c in coords) for i in range(n))
    got = sample_poisson(2.0, rectangle, seed).points
    assert got == want and all(type(c) is float for p in got for c in p)


@pytest.mark.parametrize("box", [[(0, 9), (-3, 4)], [(2, 2)], [(0, 3), (0, 2), (-1, 1)]])
@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_bernoulli_points_are_the_per_int_tuples(box, seed):
    grid = box_grid(box)
    keep = rng_for(seed, _ROLE_BERNOULLI).random(len(grid)) < 0.5
    want = tuple(tuple(int(c) for c in row) for row in grid[keep])
    got = sample_bernoulli(0.5, box, seed).points
    assert got == want and all(type(c) is int for p in got for c in p)


@pytest.mark.parametrize("sample", [
    lambda: sample_bernoulli(0.5, [(0, 3), (0, 3)], 1),
    lambda: sample_poisson(3.0, [(0.0, 2.0), (0.0, 1.0)], 1),
], ids=["bernoulli", "poisson"])
def test_cloud_coords_are_read_only(sample):
    cloud = sample()
    assert cloud.coords.dtype == (np.int64 if cloud.kind == "bernoulli" else np.float64)
    with pytest.raises(ValueError, match="read-only"):
        cloud.coords[0, 0] = 1


def test_cloud_does_not_freeze_the_callers_array():
    rows = np.array([[0, 1], [1, 0]])
    cloud = PointCloud(rows, ((0, 1), (0, 1)), "bernoulli", 0.5, 0)
    rows[0, 0] = 1
    assert rows.flags.writeable and cloud.points == ((0, 1), (1, 0))


@pytest.mark.parametrize("points, window, kind, error, match", [
    (((0, 1), (2,)), ((0, 3), (0, 3)), "bernoulli", BadDimension, "must be N x 2 ints or floats"),
    (((0, 1, 2),), ((0, 3), (0, 3)), "bernoulli", BadDimension, r"shape \(1, 3\)"),
    ((0, 1), ((0, 3), (0, 3)), "bernoulli", BadDimension, r"shape \(2,\)"),
    (((0, "1"),), ((0, 3), (0, 3)), "bernoulli", BadDimension, "of <U21"),
    (((0, None),), ((0, 3), (0, 3)), "bernoulli", BadDimension, "of object"),
    (((True, False),), ((0, 3), (0, 3)), "bernoulli", BadDimension, "of bool"),
    (((0, 1), (2, 5), (4, 9)), ((0, 3), (0, 3)), "bernoulli", ConfigError,
     r"^point \(2, 5\) outside the window$"),
    (((0.5, math.nan),), ((0.0, 1.0), (0.0, 1.0)), "poisson", ConfigError, "outside the window"),
    (((2**53 + 1,),), ((0, 2.0**53),), "bernoulli", ConfigError,
     r"^point \(9007199254740993,\) outside the window$"),
    (((0.5, 0.0), (0.1, 0.2), (0.5, -0.0)), ((0.0, 1.0), (-1.0, 1.0)), "poisson", ConfigError,
     "coincident continuous points"),
])
def test_cloud_faults_are_named(points, window, kind, error, match):
    with pytest.raises(error, match=match):
        PointCloud(points, window, kind, 1.0, 0)


def test_integer_cloud_meets_float_bounds_exactly():
    cloud = PointCloud(((2**53 - 1,), (2**53,)), ((-0.5, 2.0**53),), "bernoulli", 1.0, 0)
    assert cloud.coords.dtype == np.int64 and cloud.points == ((2**53 - 1,), (2**53,))
    cloud = PointCloud(((0, 0), (1, 2)), ((-math.inf, 1.5), (0, math.inf)), "bernoulli", 1.0, 0)
    assert cloud.points == ((0, 0), (1, 2))


def test_poisson_rectangle_without_axes_raises_bad_dimension():
    with pytest.raises(BadDimension, match="^rectangle has no axes$"):
        sample_poisson(2.0, [], seed=0)


def test_bernoulli_box_without_axes_raises_bad_dimension():
    with pytest.raises(BadDimension, match="^box has no axes$"):
        sample_bernoulli(0.5, [], seed=1)


def test_poisson_mean_count():
    total = 0
    for r in range(10000):
        total += len(sample_poisson(2.0, [(0.0, 1.0), (0.0, 1.0)], seed=r))
    mean = total / 10000
    assert abs(mean - 2.0) <= 4 * math.sqrt(2.0 / 10000)


def test_poisson_points_inside_and_distinct():
    cloud = sample_poisson(50.0, [(0.0, 2.0), (-1.0, 1.0)], seed=8)
    assert len(set(cloud.points)) == len(cloud)
    for t, x in cloud.points:
        assert 0.0 <= t <= 2.0 and -1.0 <= x <= 1.0


def test_poisson_disjoint_counts_uncorrelated():
    lows, highs = [], []
    for r in range(1500):
        cloud = sample_poisson(3.0, [(0.0, 1.0), (0.0, 2.0)], seed=20000 + r)
        lows.append(sum(1 for _, x in cloud.points if x < 1.0))
        highs.append(sum(1 for _, x in cloud.points if x >= 1.0))
    corr = np.corrcoef(lows, highs)[0, 1]
    assert abs(corr) <= 4 / math.sqrt(1500)


# -- continuous strip --------------------------------------------------------------


def scan_oracle(cloud, w):
    """Sort by time, take the first point falling in the strip."""
    order = sorted(range(len(cloud)), key=lambda i: cloud.points[i][0])
    jump, exits, interior = {}, set(), set()
    (t_lo, t_hi), spaces = cloud.window[0], cloud.window[1:]
    for pos, i in enumerate(order):
        ti, xi = cloud.points[i][0], cloud.points[i][1:]
        found = None
        for j in order[pos + 1 :]:
            tj, xj = cloud.points[j][0], cloud.points[j][1:]
            if tj > ti and all(abs(a - b) <= w for a, b in zip(xi, xj)):
                found = j
                break
        if found is None:
            exits.add(i)
            continue
        jump[i] = found
        ok = cloud.points[found][0] < t_hi
        for a, (lo, hi) in zip(xi, spaces):
            ok = ok and lo < a - w and a + w < hi
        if ok:
            interior.add(i)
    return jump, exits, interior


def test_strip_two_point_example():
    cloud = PointCloud(((0.0, 0.0), (1.0, 0.5)), ((0.0, 2.0), (-2.0, 2.0)),
                       "poisson", 1.0, 0)
    fw = strip_point_map(cloud, StripConfig(half_width=1.0))
    assert fw.jump == {0: 1}
    assert fw.exits == {1}


def test_strip_single_point_exits():
    cloud = PointCloud(((0.5, 0.5),), ((0.0, 1.0), (0.0, 1.0)),
                       "poisson", 1.0, 0)
    fw = strip_point_map(cloud, StripConfig(half_width=0.25))
    assert fw.exits == {0} and not fw.jump


def test_strip_matches_scan_oracle():
    cloud = sample_poisson(1.0, [(0.0, 100.0), (0.0, 100.0)], seed=77)
    assert len(cloud) > 9000
    fw = strip_point_map(cloud, StripConfig(half_width=1.0))
    jump, exits, interior = scan_oracle(cloud, 1.0)
    assert fw.jump == jump
    assert fw.exits == exits
    assert fw.interior == interior


def test_strip_time_strictly_increases():
    cloud = sample_poisson(2.0, [(0.0, 20.0), (0.0, 20.0)], seed=5)
    fw = strip_point_map(cloud, StripConfig(half_width=0.7))
    for i, j in fw.jump.items():
        assert cloud.points[j][0] > cloud.points[i][0]


def test_strip_time_axis_permutation():
    # same cloud with coordinates swapped and the time axis pointed at 1
    pts = ((0.0, 0.0), (1.0, 0.5), (2.5, 0.4))
    win = ((0.0, 3.0), (-2.0, 2.0))
    straight = PointCloud(pts, win, "poisson", 1.0, 0)
    swapped = PointCloud(tuple((x, t) for t, x in pts), (win[1], win[0]),
                         "poisson", 1.0, 0)
    a = strip_point_map(straight, StripConfig(half_width=1.0))
    b = strip_point_map(swapped, StripConfig(half_width=1.0, time_axis=1))
    assert a.jump == b.jump and a.exits == b.exits


@pytest.mark.parametrize("axis", [True, 1.5, "1", -1])
def test_strip_time_axis_must_be_a_count(axis):
    with pytest.raises(ConfigError, match=f"^time_axis must be an integer >= 0, got {axis!r}$"):
        StripConfig(1.0, time_axis=axis)


# -- slice nearest point ------------------------------------------------------------


def test_howard_full_retention_is_identity_shift():
    fw = howard_model(1.0, [(0, 5), (-3, 3)], seed=2)
    for (t, x) in fw.vertices:
        if t < 5:
            assert fw.jump[(t, x)] == (t + 1, x)
        else:
            assert (t, x) in fw.exits
    assert all(v[0] < 5 for v in fw.interior)


def test_howard_single_candidate_chosen():
    cloud = PointCloud(((0, 0), (1, 3)), ((0, 1), (-5, 5)), "bernoulli", 0.5, 1)
    fw = _howard_forest(cloud, seed=4)
    assert fw.jump == {(0, 0): (1, 3)}
    # ball of radius 3 around 0 pokes past the space boundary at +-5? no: [-3,3]
    assert (0, 0) in fw.interior


def test_howard_ball_leaving_window_not_interior():
    cloud = PointCloud(((0, 4), (1, -2)), ((0, 1), (-5, 5)), "bernoulli", 0.5, 1)
    fw = _howard_forest(cloud, seed=4)
    assert fw.jump == {(0, 4): (1, -2)}
    assert (0, 4) not in fw.interior  # radius 6 ball overhangs the window


def test_howard_equidistant_tie_frequencies():
    pts = ((0, 0), (1, -1), (1, 1))
    win = ((0, 1), (-4, 4))
    left = 0
    trials = 20000
    for s in range(trials):
        cloud = PointCloud(pts, win, "bernoulli", 0.5, s)
        fw = _howard_forest(cloud, seed=s)
        left += fw.jump[(0, 0)] == (1, -1)
    assert band(left / trials, 0.5, trials)


def test_howard_errors():
    with pytest.raises(BadDimension):
        howard_model(0.5, [(0, 4)], seed=0)
    with pytest.raises(ConfigError):
        howard_model(0.0, [(0, 4), (0, 4)], seed=0)


# -- discrete strip -----------------------------------------------------------------


def test_discrete_strip_full_retention_uniform_targets():
    fw = discrete_strip(1.0, [(0, 60), (0, 299)], seed=14)
    counts = {-1: 0, 0: 0, 1: 0}
    n = 0
    for (t, x), (s, y) in fw.jump.items():
        assert s == t + 1
        dx = (y - x + 150) % 300 - 150
        counts[dx] += 1
        n += 1
    assert n == 61 * 300 - 300
    for dx in counts:
        assert band(counts[dx] / n, 1 / 3, n)


def test_discrete_strip_kernel_frequencies():
    # independent sources: one per disjoint column triple, far from the top
    length, slack = 12000, 40
    fw = discrete_strip(0.5, [(0, slack + 1), (0, length - 1)], seed=3)
    gap1 = {-1: 0, 0: 0, 1: 0}
    gap2 = 0
    sources = [(0, x) for x in range(0, length, 3)]
    n = len(sources)
    for src in sources:
        t, x = src
        assert src in fw.jump  # escape chance 8^-41
        s, y = fw.jump[src]
        if s - t == 1:
            dx = (y - x + length // 2) % length - length // 2
            gap1[dx] += 1
        elif s - t == 2:
            gap2 += 1
    for dx in gap1:
        assert band(gap1[dx] / n, 7 / 24, n)  # (1 - q^3)/3 at q = 1/2
    assert band(gap2 / n, 7 / 64, n)  # q^3 (1 - q^3)


def test_discrete_strip_interior_and_exits():
    fw = discrete_strip(0.5, [(0, 10), (0, 9)], seed=6)
    for v in fw.vertices:
        if v[0] == 10:
            assert v in fw.exits or v not in fw.jump
    for v in fw.interior:
        assert fw.jump[v][0] < 10


def test_discrete_strip_determinism():
    a = discrete_strip(0.7, [(0, 30), (0, 19)], seed=9)
    b = discrete_strip(0.7, [(0, 30), (0, 19)], seed=9)
    assert a.jump == b.jump and a.exits == b.exits and a.interior == b.interior


def test_discrete_strip_rejects_bad_config():
    with pytest.raises(ConfigError):
        discrete_strip(0.5, [(0, 10), (0, 1)], seed=0)  # L = 2
    with pytest.raises(ConfigError):
        discrete_strip(0.0, [(0, 10), (0, 9)], seed=0)


@pytest.mark.parametrize("box", [[(0, 9)], [(0, 10), (0, 9), (0, 2)]])
def test_discrete_strip_box_without_two_axes_raises_bad_dimension(box):
    with pytest.raises(BadDimension, match="box"):
        discrete_strip(0.5, box, seed=0)


# -- exports -----------------------------------------------------------------------


def test_level_csv_small_example():
    cloud = PointCloud(((0.0, 0.0), (1.0, 0.5), (2.0, 0.2)),
                       ((0.0, 3.0), (-2.0, 2.0)), "poisson", 1.0, 0)
    fw = strip_point_map(cloud, StripConfig(half_width=1.0))
    text = level_csv(cloud, fw)
    lines = text.strip().split("\n")
    assert lines[0] == "point_id,t,x,level_index,component_id"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    levels = {int(r[0]): int(r[3]) for r in rows}
    assert levels == {0: 2, 1: 1, 2: 0}
    assert len({r[4] for r in rows}) == 1


def test_level_csv_refuses_cyclic_component():
    cloud = PointCloud(((0.0, 0.0), (1.0, 0.5)), ((0.0, 3.0), (-2.0, 2.0)), "poisson", 1.0, 0)
    two_cycle = build_forest(range(2), {0: 1, 1: 0}, dimension=2)
    with pytest.raises(CyclicComponent):
        level_csv(cloud, two_cycle)


def test_dump_cloud_shape():
    cloud = sample_bernoulli(0.5, [(0, 3), (0, 3)], seed=5)
    text = dump_cloud(cloud)
    lines = text.strip().split("\n")
    assert lines[0].startswith("window=0:3 0:3 kind=bernoulli")
    assert len(lines) == 1 + len(cloud)
