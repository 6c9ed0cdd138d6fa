"""Named model samplers: lattice walks with drift, coalescing walks on
space-time graphs, the dual voter partition, and the canopy control.

Every sampler is a pure function of (config, seed); jump draws consume
the seeded stream in a fixed vertex order, so equal inputs give equal
windows.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimension,
    BadGraph,
    ConfigError,
    DetailedBalanceViolated,
    EmptyWindow,
    MalformedJump,
    NotConnected,
    TooLarge,
    UnknownVertex,
    _check_steps,
)
from .forest import build_forest
from .graphs import FiniteGraph, _check_graph
from .lattice import (
    _law,
    atom_cdf,
    atom_index,
    even_sublattice,
    integer_lattice,
    sample_lattice_cmt,
    uniform_jumps,
)
from .seeds import derive_seed, rng_for

_ROLE_SPACE_TIME = 0xB1
_ROLE_VOTER = 0xB2
_ROLE_CANOPY = 0xB3


# -- lattice models -----------------------------------------------------------


def nguyen_atoms(d):
    """The 2(d-1) steps (+-e_i, last coordinate -1)."""
    atoms = []
    for i in range(d - 1):
        for s in (1, -1):
            a = [0] * d
            a[i] = s
            a[-1] = -1
            atoms.append(tuple(a))
    return tuple(atoms)


def nguyen_model(d, box, seed):
    """Uniform sideways step combined with a unit drop, on the even
    sublattice of Z^d."""
    _check_steps("d", d, least=None)
    if d < 2:
        raise BadDimension("need at least two coordinates")
    jumps = uniform_jumps(nguyen_atoms(d))
    return sample_lattice_cmt(
        even_sublattice(d), jumps, box, seed, name=f"nguyen-{d}d"
    )


def variant_atoms():
    return ((-1, -1), (1, -1), (0, -2))


def nguyen_variant(box, seed):
    """Planar variant with the extra double-drop step (0,-2), which makes
    the step differences span the whole even sublattice."""
    jumps = uniform_jumps(variant_atoms())
    return sample_lattice_cmt(
        even_sublattice(2), jumps, box, seed, name="nguyen-variant"
    )


def renewal_model(jumps, interval, seed):
    """One-dimensional forward chain with positive integer steps."""
    interval = tuple(interval)
    if len(interval) != 2:
        raise ConfigError(f"interval must be a (lo, hi) pair, got {interval!r}")
    for i, x in enumerate(interval):
        _check_steps(f"interval[{i}]", x, least=None)
    if _law(jumps).dimension != 1:
        raise BadDimension("renewal jumps live on the integers")
    if any(a[0] < 1 for a in jumps.atoms):
        raise MalformedJump("renewal steps must be positive")
    return sample_lattice_cmt(
        integer_lattice(1), jumps, [interval], seed, name="renewal"
    )


# -- space-time graphs --------------------------------------------------------


@dataclass(frozen=True)
class SpaceTimeGraph:
    """A finite base graph crossed with an integer time interval; the
    second coordinate of a space-time vertex is the time mark."""

    base: FiniteGraph
    time_range: tuple

    def __post_init__(self):
        _check_graph("base", self.base)
        try:
            lo, hi = self.time_range
        except (TypeError, ValueError):
            raise ConfigError(
                f"time_range must be a (lo, hi) pair, got {self.time_range!r}") from None
        for i, t in enumerate((lo, hi)):
            _check_steps(f"time_range[{i}]", t, least=None)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise EmptyWindow("empty time range")
        if not self.base.is_connected():
            raise NotConnected("base graph is not connected")
        object.__setattr__(self, "time_range", (lo, hi))

    def vertices(self):
        lo, hi = self.time_range
        return [(x, t) for t in range(lo, hi + 1) for x in self.base.vertices]


def _space_time_window(space_time, seed, name, draw):
    """One jump per space-time vertex below the top slice, from (x, t) to (y, t + 1):
    draw(rng, m) gives the base rows of the m slices' targets y as an m x n array,
    in base vertex order. The top slice keeps no jump."""
    _check_steps("seed", seed, least=None)
    lo, hi = space_time.time_range
    verts = space_time.vertices()
    n = len(space_time.base.vertices)
    # (x, t) is vertex (t - lo) * n + row(x), so slice s's targets sit in slice s + 1
    rng = rng_for(seed, _ROLE_SPACE_TIME)
    targets = draw(rng, hi - lo) + n * np.arange(1, hi - lo + 1)[:, None]
    return build_forest(
        verts,
        zip(verts, map(verts.__getitem__, targets.ravel().tolist())),
        dimension=2,
        metadata={"model": name, "seed": int(seed), "time_range": (lo, hi)},
    )


def coalescing_srw(space_time, seed):
    """One uniform-neighbor step per space-time vertex, moving one step
    up in time; the top slice keeps no jump."""
    verts, _, nbrs = space_time.base.frame
    deg = np.array(list(map(len, nbrs)))
    if not deg.all():
        raise BadGraph(f"isolated vertex {verts[int(np.argmin(deg))]!r}")
    flat = np.array([r for ns in nbrs for r in ns])  # rows end to end: linear in the edges

    def draw(rng, m):  # one bounded draw per vertex, the stream of a scalar loop
        return flat[np.cumsum(deg) - deg + rng.integers(0, deg, size=(m, len(deg)))]

    return _space_time_window(space_time, seed, "coalescing-srw", draw)


def _stochastic_rows(base, kernel):
    rows = {}
    for x in base.vertices:
        row = {y: float(q) for y, q in dict(kernel.get(x, {})).items() if q}
        for y in row:
            if y not in base.adjacency:
                raise UnknownVertex(f"kernel target {y!r} is not a base vertex")
        if any(q < 0 for q in row.values()) or abs(sum(row.values()) - 1) > 1e-12:
            raise MalformedJump(f"kernel row at {x!r} is not a distribution")
        rows[x] = sorted(row.items())
    return rows


def coalescing_mc(space_time, kernel, base_weights, seed):
    """Coalescing chain with a reversible base kernel.

    kernel maps x -> {y: probability}; base_weights is the claimed
    stationary weighting, checked against detailed balance to 1e-9.
    """
    base = space_time.base
    rows = _stochastic_rows(base, kernel)
    for x in base.vertices:
        if x not in base_weights:
            raise ConfigError(f"base_weights has no weight for base vertex {x!r}")
    for x in base.vertices:
        for y, q in rows[x]:
            back = dict(kernel.get(y, {})).get(x, 0.0)
            if abs(base_weights[x] * q - base_weights[y] * float(back)) > 1e-9:
                raise DetailedBalanceViolated(f"between {x!r} and {y!r}")

    row = base.frame.row
    laws = [(np.array([row[y] for y, _ in r]), atom_cdf([q for _, q in r])) for r in rows.values()]

    def draw(rng, m):  # one uniform per vertex, slice by slice; u[x] holds base row x's draws
        u = rng.random((m, len(laws))).T
        return np.stack([tgt[atom_index(cdf, ui)] for (tgt, cdf), ui in zip(laws, u)], axis=1)

    return _space_time_window(space_time, seed, "coalescing-mc", draw)


# -- voter model via duality ---------------------------------------------------


def voter_stationary(base, lookback, seed):
    """Opinion classes of the voter model run from far in the past.

    Dual walks start at every vertex and step backward `lookback` times
    as lazy simple random walks with shared per-site draws, so walks
    that meet merge for good. Classes are the equal-endpoint sets; the
    draw for layer s depends only on (seed, s), which makes the
    `lookback` partition a refinement of the `lookback+1` one.
    """
    _check_steps("lookback", lookback)
    _check_steps("seed", seed, least=None)
    _check_graph("base", base)
    if not base.is_connected():
        raise NotConnected("base graph is not connected")
    verts, _, nbrs = base.frame
    pos = list(range(len(verts)))
    for s in range(lookback):
        rng = rng_for(derive_seed(seed, s), _ROLE_VOTER)
        move = [r if not ns or rng.random() < 0.5 else ns[int(rng.integers(len(ns)))]
                for r, ns in enumerate(nbrs)]
        pos = [move[p] for p in pos]
    classes = {}
    for x, p in zip(verts, pos):
        classes.setdefault(p, []).append(x)
    return sorted(sorted(c) for c in classes.values())


# -- canopy control -------------------------------------------------------------


def canopy_cmt(depth, seed):
    """Canopy-tree window with the parent/grandparent kernel.

    Vertices are (level, index) with 2**(depth-level) vertices per level.
    A vertex at level l jumps to its grandparent with probability
    2**(-l-1) and to its parent otherwise. The top interior level cannot
    reach a grandparent inside the window, so that draw is redirected to
    the parent; the root's jump leaves the window. Returns the window
    together with {vertex: l + n}, where n counts the grandparent hops
    actually performed along the sampled in-window line. depth runs from
    1 to 61; from 62 on the row count passes int64 (TooLarge).
    """
    _check_steps("depth", depth, least=None)
    _check_steps("seed", seed, least=None)
    if depth < 1:
        raise BadDimension("depth must be at least 1")
    if depth >= 62:
        raise TooLarge(f"depth {depth} would give 2**{depth + 1} - 1 vertices")
    rng = rng_for(seed, _ROLE_CANOPY)
    # rows run level by level, so (l, j) is row first[l] + j; every row but
    # the root's reads one draw, in row order
    sizes = np.left_shift(1, depth - np.arange(depth + 1))
    first = np.concatenate(([0], np.cumsum(sizes)))
    lvl = np.repeat(np.arange(depth + 1), sizes)
    j = np.arange(len(lvl)) - first[lvl]
    low, jl = lvl[:-1], j[:-1]
    up = low + 1 + ((rng.random(len(low)) < np.ldexp(1.0, -low - 1)) & (low + 2 <= depth))
    fw = build_forest(
        np.stack([lvl, j], axis=1),
        np.append(first[up] + (jl >> (up - low)), -1),
        interior=lvl <= depth - 2,
        dimension=2,
        metadata={"model": "canopy", "seed": int(seed), "depth": int(depth)},
    )
    # every line climbs to the root at level `depth`: l + k + n = depth
    # after k jumps, n of them to a grandparent, and k is the line's depth
    invariant = dict(zip(fw.verts, (depth - fw.depth).tolist()))
    return fw, invariant
