"""Point-cloud forests: Bernoulli and Poisson clouds, the strip
point-map, the nearest-point slice model, and the discrete strip on a
cylinder.

All three point-maps move strictly up in the first coordinate, so the
resulting windows are cycle-free by construction. Interior flags follow
stopping-set honesty: a source is interior only when the region its
search scanned lies inside the window, so the recorded jump is exactly
what the infinite model would have produced.

The strip point-map finds every successor in one time-sorted bucket sweep,
about n log n on a Poisson cloud instead of a scan of all pairs; equal
times break lexicographically on the other coordinates, then by point id.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (BadDimension, ConfigError, CyclicComponent, EmptyWindow, _check_not_bool,
                     _check_steps)
from .forest import _check_window, _freeze, box_grid, build_forest
from .seeds import derive_seed, rng_for

_ROLE_BERNOULLI = 0xD1
_ROLE_POISSON = 0xD2
_ROLE_HOWARD = 0xD4
_ROLE_STRIP_FIELD = 0xD5
_ROLE_STRIP_TIES = 0xD6

_CELL_AXES = 2  # the strip sweep cuts cells on at most this many space axes
_STEP_BLOCK = 1 << 18  # candidate pairs one step of the strip sweep or of Howard may read


@dataclass(frozen=True, eq=False)
class PointCloud:
    """A finite set of points in a box window.

    kind records the generating process ("bernoulli" or "poisson"),
    parameter its retention probability or intensity. The points, given as
    equal-length number sequences or an N x d array, are the rows of
    `coords`, a read-only int64 array if every coordinate is an integer and
    float64 otherwise, in the order sampled (lexicographic for Bernoulli).
    `points` views them as tuples. Clouds compare and hash by identity."""

    coords: np.ndarray
    window: tuple
    kind: str
    parameter: float
    seed: int

    def __post_init__(self):
        window = tuple((lo, hi) for lo, hi in self.window)
        try:  # rows of unequal lengths raise ValueError too
            c = np.asarray(self.coords)
            c = c.reshape(0, len(window)) if c.shape == (0,) else c
            if c.ndim != 2 or c.shape[1] != len(window) or c.dtype.kind not in "if":
                raise ValueError(f"got shape {c.shape} of {c.dtype}")
        except ValueError as e:
            raise BadDimension(f"points must be N x {len(window)} ints or floats: {e}") from None
        c = _freeze(c.astype(np.int64 if c.dtype.kind == "i" else np.float64))
        inside = np.True_
        for col, (lo, hi) in zip(c.T, window):
            if c.dtype.kind == "i":  # in [lo, hi] iff in [ceil lo, floor hi]: no float cast
                lo, hi = (r(b) if isinstance(b, float) and math.isfinite(b) else b
                          for r, b in ((math.ceil, lo), (math.floor, hi)))
            inside = inside & (lo <= col) & (col <= hi)
        if not inside.all():
            raise ConfigError(f"point {tuple(c[inside.argmin()].tolist())!r} outside the window")
        if self.kind == "poisson" and len(c) > 1:  # once sorted, equal rows are neighbours
            s = c[np.lexsort(c.T[::-1])]
            if (s[1:] == s[:-1]).all(axis=1).any():
                raise ConfigError("coincident continuous points")
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "coords", c)

    @cached_property
    def points(self):
        return tuple(map(tuple, self.coords.tolist()))

    @property
    def dimension(self):
        return len(self.window)

    def __len__(self):
        return len(self.coords)


def sample_bernoulli(p, box, seed):
    """Keep each integer point of the box independently with chance p."""
    _check_steps("seed", seed, least=None)
    _check_not_bool("p", p, "a probability")
    if not 0 <= p <= 1:
        raise ConfigError("retention probability out of range")
    grid = box_grid(box)
    if not len(grid):
        raise EmptyWindow("box has an empty axis")
    rng = rng_for(seed, _ROLE_BERNOULLI)
    keep = rng.random(len(grid)) < p
    return PointCloud(grid[keep], tuple(box), "bernoulli", float(p), int(seed))


def sample_poisson(intensity, rectangle, seed):
    """Poisson process on a real box: Poisson(intensity * volume) many
    uniform points."""
    _check_steps("seed", seed, least=None)
    if not 0 <= intensity < math.inf:
        raise ConfigError(f"intensity must be a finite number >= 0, got {intensity!r}")
    if not len(rectangle):
        raise BadDimension("rectangle has no axes")
    vol = 1.0
    for lo, hi in rectangle:
        if hi <= lo:
            raise EmptyWindow("degenerate rectangle axis")
        vol *= hi - lo
    rng = rng_for(seed, _ROLE_POISSON)
    n = int(rng.poisson(intensity * vol))
    coords = np.array([rng.uniform(lo, hi, size=n) for lo, hi in rectangle]).T
    return PointCloud(coords, tuple(rectangle), "poisson", float(intensity), int(seed))


def dump_cloud(cloud):
    """Text dump: a header line, then one point per line."""
    win = " ".join(f"{lo}:{hi}" for lo, hi in cloud.window)
    lines = [
        f"window={win} kind={cloud.kind} parameter={cloud.parameter!r} "
        f"seed={cloud.seed}"
    ]
    lines.extend(_rows_text(cloud.coords))
    return "\n".join(lines) + "\n"


def _rows_text(a):
    """Each row of a as its entries' str joined by spaces."""
    cols = [map(str, c) for c in a.T.tolist()]
    return map(" ".join, zip(*cols)) if cols else itertools.repeat("", len(a))


# -- continuous strip ----------------------------------------------------------


@dataclass(frozen=True)
class StripConfig:
    half_width: float
    time_axis: int = 0

    def __post_init__(self):
        if not 0 < self.half_width < math.inf:
            raise ConfigError(f"half_width must be a finite number > 0, got {self.half_width!r}")
        _check_steps("time_axis", self.time_axis)


def _axis_order(d, time_axis):
    if not 0 <= time_axis < d:
        raise ConfigError(f"time_axis {time_axis} out of range for {d} axes")
    return (time_axis,) + tuple(a for a in range(d) if a != time_axis)


def _strip_successors(pts, w):
    """The strip successor of every row of pts (n x d, time in column 0),
    or -1: among the points with a later time and every other coordinate
    within w (the float test abs(x_j - x_i) <= w), the first in (time,
    other coordinates lexicographically, id) order.

    Points are bucketed into cells of width W, the least power of two above
    w, on at most the first _CELL_AXES space axes. A float difference at
    most w is an exact one below W, and floor(x / W) is exact short of
    over- and underflow (where the only floats within w of each other share
    a cell, or sit in cells -1 and 0); so every candidate lies in the
    source's cell or one cell away on each cut axis. Cells are ranked
    densely axis by axis, so no key outgrows n^2. Each cell is held in
    (time, coordinates, id) order. A source searches every neighbour cell
    from its first later time; all open searches step at once, in blocks
    that double, and a search stops at its first hit or once it passes the
    best hit of another cell. The cost is n log n plus the candidates
    stepped over, with no Python loop over points or cells."""
    n = len(pts)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    t, x = pts[:, 0], pts[:, 1:]
    by_rank = np.lexsort(tuple(x.T[::-1]) + (t,))  # stable, so ids break ties
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)

    k = min(x.shape[1], _CELL_AXES)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        cells = np.floor(x[:, :k] / np.ldexp(1.0, np.frexp(w)[1]))
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=k))).reshape(3**k, k)
    cell = np.zeros(n, dtype=np.int64)  # dense rank of the cell on the axes so far
    near = np.zeros((n, len(offsets)), dtype=np.int64)  # neighbour cells' ranks, -1 if empty
    for a in range(k):
        values, axis_rank = np.unique(cells[:, a], return_inverse=True)
        want = cells[:, a, None] + offsets[:, a]
        at = np.minimum(np.searchsorted(values, want), len(values) - 1)
        occupied, cell = np.unique(cell * len(values) + axis_rank, return_inverse=True)
        key = near * len(values) + at
        hit = np.minimum(np.searchsorted(occupied, key), len(occupied) - 1)
        near = np.where((near >= 0) & (values[at] == want) & (occupied[hit] == key), hit, -1)

    order = by_rank[np.argsort(cell[by_rank], kind="stable")]
    ends = np.cumsum(np.bincount(cell))
    times, t_rank = np.unique(t, return_inverse=True)
    keys = (cell * len(times) + t_rank)[order]
    src, col = np.nonzero(near >= 0)
    pair_cell = near[src, col]
    pos = np.searchsorted(keys, pair_cell * len(times) + t_rank[src], side="right")
    end = ends[pair_cell]
    sx, s_rank = x[order], rank[order]
    best = np.full(n, n)  # rank of each source's best hit so far
    step = 1
    while True:
        keep = pos < end
        src, pos, end = src[keep], pos[keep], end[keep]
        keep = s_rank[pos] < best[src]
        src, pos, end = src[keep], pos[keep], end[keep]
        if len(src) == 0:
            break
        at = np.minimum(pos[:, None] + np.arange(step), end[:, None] - 1)
        ok = (np.abs(sx[at] - x[src, None]) <= w).all(axis=2)
        got = ok.any(axis=1)
        np.minimum.at(best, src[got], s_rank[at[got, ok[got].argmax(axis=1)]])
        src, pos, end = src[~got], pos[~got] + step, end[~got]
        step = max(1, min(2 * step, _STEP_BLOCK // max(len(src), 1)))
    return np.where(best < n, by_rank[np.minimum(best, n - 1)], -1)


def strip_point_map(cloud, config):
    """Jump to the first point ahead of the source inside its strip.

    The strip of a point is {first coordinate greater} x {every other
    coordinate within half_width}. Among candidates the minimal first
    coordinate wins; exact ties (possible only for discrete clouds) break
    lexicographically on the other coordinates, then by the smaller id.
    Vertices of the output are point ids, the indices into cloud.points.
    A source is interior when its scan region stayed strictly inside the
    window on every axis. The search is a time-sorted bucket sweep
    (_strip_successors), about n log n for a Poisson cloud."""
    d = cloud.dimension
    order = _axis_order(d, config.time_axis)
    pts = cloud.coords[:, order].astype(float)
    win = [cloud.window[a] for a in order]
    w = config.half_width
    n = len(cloud)

    succ = _strip_successors(pts, w)
    interior = (succ >= 0) & (pts[succ, 0] < win[0][1])
    for a in range(1, d):
        interior &= (pts[:, a] - w > win[a][0]) & (pts[:, a] + w < win[a][1])
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
    from the source's own randomness stream. Rows are sorted, so the ties
    come in the order the draw indexes; a source with no next slice exits."""
    c = cloud.coords[np.lexsort(cloud.coords.T[::-1])]
    t, x = c[:, 0], c[:, 1:]
    cuts = [0, *(np.flatnonzero(t[1:] != t[:-1]) + 1).tolist(), len(c)]
    succ = np.full(len(c), -1, dtype=np.int64)
    best = np.zeros(len(c), dtype=np.int64)
    for a, b, e in zip(cuts, cuts[1:], cuts[2:]):
        if t[b] != t[a] + 1:
            continue
        step = max(1, _STEP_BLOCK // (e - b))
        for r in range(a, b, step):
            src = slice(r, min(r + step, b))
            dist = np.abs(x[src, None] - x[None, b:e]).sum(axis=2)
            best[src] = near = dist.min(axis=1)
            tie = dist == near[:, None]
            pick = tie.argmax(axis=1)
            ties = tie.sum(axis=1)
            for i in np.flatnonzero(ties > 1).tolist():
                k = rng_for(seed, c.shape[1], *c[r + i].tolist()).integers(int(ties[i]))
                pick[i] = np.flatnonzero(tie[i])[k]
            succ[src] = b + pick
    space = np.array(cloud.window[1:]).reshape(-1, 2)
    ball = best[:, None]
    interior = ((x - ball >= space[:, 0]) & (x + ball <= space[:, 1])).all(axis=1)
    return build_forest(
        c,
        succ,
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
    _check_steps("seed", seed, least=None)
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
    _check_steps("seed", seed, least=None)
    _check_not_bool("p", p, "a probability")
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
    succ, interior = _strip_cells(p, t_hi - t_lo + 1, length, seed)
    return build_forest(
        box_grid(box),
        succ,
        interior=interior,
        dimension=2,
        metadata={"model": "discrete-strip", "seed": int(seed), "p": float(p),
                  "window": tuple(tuple(b) for b in box)},
    )


def _strip_cells(p, rows, length, seed):
    """The discrete strip's succ over the rows x length cells, row-major, and
    the mask of the cells whose scan concluded below the top row. The field
    arrays die here, before the window is built."""
    rng = rng_for(seed, _ROLE_STRIP_FIELD)
    retained = rng.random((rows, length)) < p
    marks = rng_for(seed, _ROLE_STRIP_TIES).random((rows, length))

    near = retained | np.roll(retained, 1, axis=1) | np.roll(retained, -1, axis=1)
    # next_hit[s, x] = smallest row index r >= s with near[r, x], else rows;
    # the sentinel row s = rows is near everywhere and retains nothing
    next_hit = np.where(np.vstack([near, np.ones(length, dtype=bool)]),
                        np.arange(rows + 1)[:, None], rows)
    np.minimum.accumulate(next_hit[::-1], axis=0, out=next_hit[::-1])
    retained = np.vstack([retained, np.zeros(length, dtype=bool)])

    # the source in row r, column x scans rows r+1 on; the top row finds none.
    # Its candidates are the columns x-1, x, x+1 mod L, sorted, of row hit;
    # the pick is the first whose count of retained candidates so far passes
    # mark * count (a count is an integer, so it passes the mark's floor iff
    # it passes the mark). succ is built in hit's place: hit * L + column.
    hit = next_hit[1:]
    found, interior = hit < rows, hit < rows - 1
    cols = np.sort((np.arange(length)[:, None] + [-1, 0, 1]) % length, axis=1).T
    tied = [retained[hit, c] for c in cols]
    marks *= sum(t.view(np.uint8) for t in tied)
    hit *= length
    seen, open_ = np.zeros((rows, length), dtype=np.uint8), found.copy()
    for c, t in zip(cols, tied):
        seen += t
        pick = open_ & (seen > marks)
        open_ &= ~pick
        np.add(hit, c, out=hit, where=pick)
    hit[~found] = -1
    return hit.ravel(), interior.ravel()


# -- visualization export ----------------------------------------------------------


def level_csv(cloud, forest):
    """CSV rows point_id,t,x,level_index,component_id for a point-id
    forest; level indices are heights shifted to start at 0 within each
    component, which are the distances to the component's end."""
    _check_window(forest)
    cyclic = forest.comp[forest.depth < 0]
    if len(cyclic):
        raise CyclicComponent(f"component {cyclic.min()} contains a cycle")
    if forest.coords.shape[1] != 1:
        raise BadDimension("level_csv needs a forest whose vertices are point ids")
    ids = forest.coords[:, 0]
    pts = cloud.coords[ids]
    lines = ["point_id,t,x,level_index,component_id"]
    lines.extend(map("{},{},{},{},{}".format, ids.tolist(), _rows_text(pts[:, :1]),
                     _rows_text(pts[:, 1:]), forest.depth.tolist(), forest.comp.tolist()))
    return "\n".join(lines) + "\n"
