"""Point-cloud forests: Bernoulli and Poisson clouds, the strip
point-map, the nearest-point slice model, and the discrete strip on a
cylinder.

All three point-maps move strictly up in the first coordinate, so the
resulting windows are cycle-free by construction. Interior flags follow
stopping-set honesty: a source is interior only when the region its
search scanned lies inside the window, so the recorded jump is exactly
what the infinite model would have produced.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, ConfigError, CyclicComponent, EmptyWindow
from .forest import EXIT, build_forest
from .seeds import derive_seed, rng_for, vertex_stream

_ROLE_BERNOULLI = 0xD1
_ROLE_POISSON = 0xD2
_ROLE_HOWARD = 0xD4
_ROLE_STRIP_FIELD = 0xD5
_ROLE_STRIP_TIES = 0xD6


@dataclass(frozen=True)
class PointCloud:
    """A finite set of points in a box window.

    kind records the generating process ("bernoulli" or "poisson"),
    parameter its retention probability or intensity. Points are integer
    tuples for discrete processes, float tuples otherwise, listed in the
    order sampled (lexicographic for Bernoulli)."""

    points: tuple
    window: tuple
    kind: str
    parameter: float
    seed: int

    def __post_init__(self):
        points = tuple(tuple(c) for c in self.points)
        window = tuple((lo, hi) for lo, hi in self.window)
        for p in points:
            if len(p) != len(window):
                raise BadDimension(f"point {p!r} does not match the window")
            if any(not lo <= c <= hi for c, (lo, hi) in zip(p, window)):
                raise ConfigError(f"point {p!r} outside the window")
        if self.kind == "poisson" and len(set(points)) != len(points):
            raise ConfigError("coincident continuous points")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "window", window)

    @property
    def dimension(self):
        return len(self.window)

    def __len__(self):
        return len(self.points)


def sample_bernoulli(p, box, seed):
    """Keep each integer point of the box independently with chance p."""
    if not 0 <= p <= 1:
        raise ConfigError("retention probability out of range")
    axes = [np.arange(lo, hi + 1) for lo, hi in box]
    if any(len(a) == 0 for a in axes):
        raise EmptyWindow("box has an empty axis")
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(
        -1, len(box)
    )
    rng = rng_for(seed, _ROLE_BERNOULLI)
    keep = rng.random(len(grid)) < p
    pts = tuple(tuple(int(c) for c in row) for row in grid[keep])
    return PointCloud(pts, tuple(box), "bernoulli", float(p), int(seed))


def sample_poisson(intensity, rectangle, seed):
    """Poisson process on a real box: Poisson(intensity * volume) many
    uniform points."""
    if not 0 <= intensity < math.inf:
        raise ConfigError(f"intensity must be a finite number >= 0, got {intensity!r}")
    vol = 1.0
    for lo, hi in rectangle:
        if hi <= lo:
            raise EmptyWindow("degenerate rectangle axis")
        vol *= hi - lo
    rng = rng_for(seed, _ROLE_POISSON)
    n = int(rng.poisson(intensity * vol))
    coords = [rng.uniform(lo, hi, size=n) for lo, hi in rectangle]
    pts = tuple(tuple(float(c[i]) for c in coords) for i in range(n))
    return PointCloud(pts, tuple(rectangle), "poisson", float(intensity), int(seed))


def dump_cloud(cloud):
    """Text dump: a header line, then one point per line."""
    win = " ".join(f"{lo}:{hi}" for lo, hi in cloud.window)
    lines = [
        f"window={win} kind={cloud.kind} parameter={cloud.parameter!r} "
        f"seed={cloud.seed}"
    ]
    for p in cloud.points:
        lines.append(" ".join(repr(c) if isinstance(c, float) else str(c)
                              for c in p))
    return "\n".join(lines) + "\n"


# -- continuous strip ----------------------------------------------------------


@dataclass(frozen=True)
class StripConfig:
    half_width: float
    time_axis: int = 0

    def __post_init__(self):
        if not 0 < self.half_width < math.inf:
            raise ConfigError(f"half_width must be a finite number > 0, got {self.half_width!r}")


def _axis_order(d, time_axis):
    if not 0 <= time_axis < d:
        raise ConfigError(f"time_axis {time_axis} out of range for {d} axes")
    return (time_axis,) + tuple(a for a in range(d) if a != time_axis)


def strip_point_map(cloud, config):
    """Jump to the first point ahead of the source inside its strip.

    The strip of a point is {first coordinate greater} x {every other
    coordinate within half_width}. Among candidates the minimal first
    coordinate wins; exact ties (possible only for discrete clouds)
    break lexicographically. Vertices of the output are point ids, the
    indices into cloud.points. A source is interior when its scan region
    stayed strictly inside the window on every axis."""
    d = cloud.dimension
    order = _axis_order(d, config.time_axis)
    pts = np.array(cloud.points, dtype=float).reshape(len(cloud), d)[:, order]
    win = [cloud.window[a] for a in order]
    w = config.half_width
    n = len(cloud)

    t = pts[:, 0]
    succ = np.full(n, -1, dtype=np.int64)
    interior = np.zeros(n, dtype=bool)
    for i in range(n):
        ok = t > t[i]
        for a in range(1, d):
            ok &= np.abs(pts[:, a] - pts[i, a]) <= w
        idx = np.nonzero(ok)[0]
        if len(idx) == 0:
            continue
        best_t = t[idx].min()
        tied = idx[t[idx] == best_t]
        j = min((int(k) for k in tied), key=lambda k: tuple(pts[k, 1:]))
        succ[i] = j
        inside = t[j] < win[0][1]
        for a in range(1, d):
            inside &= (pts[i, a] - w > win[a][0]) and (pts[i, a] + w < win[a][1])
        interior[i] = inside
    return build_forest(
        np.arange(n),
        succ,
        interior=interior,
        dimension=d,
        metadata={"model": "strip", "seed": cloud.seed, "half_width": w, "window": cloud.window},
    )


# -- nearest point in the next slice ---------------------------------------------


def _howard_forest(cloud, seed):
    """Point-map of a discrete cloud: jump to the retained point of the
    next time slice nearest in l1 base distance, ties drawn uniformly
    from the source's own randomness stream."""
    slices = {}
    for p in cloud.points:
        slices.setdefault(p[0], []).append(p[1:])
    t_hi = cloud.window[0][1]
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
            y = tied[int(vertex_stream(seed, p).integers(len(tied)))]
        pairs.append((p, (t + 1,) + tuple(y)))
        ball_inside = all(
            lo <= xa - best and xa + best <= hi
            for xa, (lo, hi) in zip(x, space)
        )
        if ball_inside:
            interior.append(p)
    return build_forest(
        sorted(cloud.points),
        pairs,
        interior=interior,
        dimension=cloud.dimension,
        metadata={
            "model": "howard",
            "seed": int(seed),
            "p": cloud.parameter,
            "window": cloud.window,
        },
    )


def howard_model(p, box, seed):
    """Bernoulli cloud plus nearest-point jumps between consecutive
    slices; the base distance on the space coordinates is l1."""
    if len(box) < 2:
        raise BadDimension("need a time axis and at least one space axis")
    if not 0 < p <= 1:
        raise ConfigError("retention probability out of range")
    cloud = sample_bernoulli(p, box, derive_seed(seed, _ROLE_HOWARD))
    return _howard_forest(cloud, seed)


# -- discrete strip on a cylinder -------------------------------------------------


def discrete_strip(p, box, seed):
    """Strip point-map on Z x Z_L: from (t, x), jump to the earliest
    retained point in [t+1, oo) x {x-1, x, x+1 mod L}, ties uniform.

    box = ((t_lo, t_hi), (0, L-1)) with L >= 3; every box point is a
    vertex, retained or not. Sources whose scan concluded strictly below
    the top row are interior; the space axis wraps, so only the time
    boundary truncates."""
    if not 0 < p <= 1:
        raise ConfigError("retention probability out of range")
    if len(box) != 2:
        raise BadDimension(f"box has {len(box)} axes; the discrete strip needs (time, space)")
    (t_lo, t_hi), (x_lo, x_hi) = box
    length = x_hi - x_lo + 1
    if x_lo != 0 or length < 3:
        raise ConfigError("box space axis must be (0, L-1) with L >= 3")
    if t_hi < t_lo:
        raise EmptyWindow("empty time range")
    rows = t_hi - t_lo + 1

    rng = rng_for(seed, _ROLE_STRIP_FIELD)
    retained = rng.random((rows, length)) < p
    marks = rng_for(seed, _ROLE_STRIP_TIES).random((rows, length))

    near = retained | np.roll(retained, 1, axis=1) | np.roll(retained, -1, axis=1)
    # next_hit[s, x] = smallest row index r >= s with near[r, x], else rows
    next_hit = np.full((rows + 1, length), rows, dtype=np.int64)
    for s in range(rows - 1, -1, -1):
        next_hit[s] = np.where(near[s], s, next_hit[s + 1])

    # the source in row r, column x scans rows r+1 on; the top row finds none
    hit = next_hit[1:].ravel()
    found = hit < rows
    h = hit[found]
    x = np.arange(length)  # the columns x-1, x, x+1 mod L, sorted, of each x
    cand = np.sort(np.stack([(x - 1) % length, x, (x + 1) % length], axis=1), axis=1)
    cand = cand[np.flatnonzero(found) % length]
    tied = retained[h[:, None], cand]
    k = (marks.ravel()[found] * tied.sum(axis=1)).astype(np.int64)
    pick = (np.cumsum(tied, axis=1) > k[:, None]).argmax(axis=1)
    succ = np.full(rows * length, -1, dtype=np.int64)
    succ[found] = h * length + cand[np.arange(len(h)), pick]
    return build_forest(
        np.stack(np.meshgrid(np.arange(t_lo, t_hi + 1), x, indexing="ij"), axis=-1).reshape(-1, 2),
        succ,
        interior=hit < rows - 1,
        dimension=2,
        metadata={"model": "discrete-strip", "seed": int(seed), "p": float(p),
                  "window": tuple(tuple(b) for b in box)},
    )


# -- visualization export ----------------------------------------------------------


def level_csv(cloud, forest):
    """CSV rows point_id,t,x,level_index,component_id for a point-id
    forest; level indices are heights shifted to start at 0 within each
    component, which are the distances to the component's end."""
    cyclic = forest.comp[forest.depth < 0]
    if len(cyclic):
        raise CyclicComponent(f"component {cyclic.min()} contains a cycle")
    lines = ["point_id,t,x,level_index,component_id"]
    for i, level, cid in zip(forest.verts, forest.depth.tolist(), forest.comp.tolist()):
        p = cloud.points[i]
        x = " ".join(str(c) for c in p[1:])
        lines.append(f"{i},{p[0]},{x},{level},{cid}")
    return "\n".join(lines) + "\n"
