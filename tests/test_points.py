"""Point-cloud and point-map checks: sampler statistics against binomial
and Poisson oracles, the strip map against a full-scan oracle, slice
nearest-point behavior with tie frequencies, and the cylinder strip
against its explicit kernel."""

import math

import numpy as np
import pytest

from cmtforest.errors import BadDimension, ConfigError, CyclicComponent
from cmtforest.forest import build_forest
from cmtforest.points import (
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
