"""Statistical probes over forest windows: dispersion surveys, nested
level averages, occupation frequencies, in-degree transport checks,
connectivity and component-count experiments, Green-decay probes, and
the right-stable matching between consecutive level sets.

Estimates are Monte Carlo with four-sigma half-widths computed from the
recorded trial counts; exact quantities (in-degree means, Green values)
are carried as Fractions. Reducers are order-independent (integer
counters and math.fsum), so splitting trials across workers and merging
gives byte-identical reports.
"""

import hashlib
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chains import green_table
from .errors import (
    BadDimension,
    BadGraph,
    ConfigError,
    CyclicComponent,
    Empty,
    NeedsTorus,
    TooLarge,
    UnknownVertex,
    _check_steps,
    _point,
)
from .forest import level_set, vertex
from .lattice import _in_int64, _int64_rows, _law, atom_index
from .models import canopy_cmt
from .seeds import derive_seed, rng_for

_ROLE_WALK = 0xE3
_ROLE_CHAINS = 0xE4
_ROLE_ORDER = 0xE5

SURVEY_STATISTICS = (
    "leaf-fraction",
    "mean-in-degree",
    "jump-frequency-vector",
    "height-range-per-size",
)


@dataclass(frozen=True)
class ProbeReport:
    probe: str
    units: tuple
    values: tuple
    half_widths: tuple
    trials: tuple
    truncation_fraction: float
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.units)
        if not (len(self.values) == len(self.half_widths) == len(self.trials) == n):
            raise ConfigError("per-unit columns must have equal length")
        if not 0.0 <= self.truncation_fraction <= 1.0:
            raise ConfigError("truncation fraction must lie in [0, 1]")


@dataclass(frozen=True)
class LevelAverage:
    n: int
    value: float
    count: int
    truncated: bool


@dataclass(frozen=True)
class InDegreeProfile:
    mean: Fraction
    histogram: dict
    region_size: int


@dataclass(frozen=True)
class LevelBijection:
    matching: dict
    unmatched: frozenset

    def __post_init__(self):
        targets = list(self.matching.values())
        if len(set(targets)) != len(targets):
            raise BadGraph("matching is not injective")
        if set(self.matching) & self.unmatched:
            raise BadGraph("a vertex cannot be both matched and unmatched")


def _config_digest(config):
    """The full SHA-256 hex of config as sorted-key JSON; callers cut their length."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def probe_csv(report):
    lines = ["unit,value,half_width,trials"]
    for u, v, h, t in zip(report.units, report.values, report.half_widths, report.trials):
        value = " ".join(repr(c) for c in v) if isinstance(v, tuple) else repr(v)
        lines.append(f"{u},{value},{h!r},{t}")
    return "\n".join(lines) + "\n"


def probe_json(report):
    payload = {
        "probe": report.probe,
        "config_hash": _config_digest(report.details)[:12],
        "estimates": {str(u): v for u, v in zip(report.units, report.values)},
        "bands": {str(u): h for u, h in zip(report.units, report.half_widths)},
        "truncation_fraction": report.truncation_fraction,
    }
    return json.dumps(payload, sort_keys=True)


# -- component statistics ------------------------------------------------------------


def _lattice_coords(forest, reader):
    """The window's int coordinates, or BadDimension for vertices that are
    not integer points."""
    if forest.coords.dtype == object:
        raise BadDimension(f"{reader} needs vertices that are integer points")
    return forest.coords


def component_statistic_survey(forest, statistic, min_size):
    """Per-component values of one statistic, with their dispersion.

    Components below min_size are ignored; cyclic components are skipped
    for the height-range statistic since heights are undefined on them.
    """
    if statistic not in SURVEY_STATISTICS:
        raise ConfigError(f"unknown statistic {statistic!r}")
    if min_size < 1:
        raise ConfigError("min_size must be at least one")
    size = np.bincount(forest.comp)
    dangling = np.bincount(forest.comp[forest.succ < 0], minlength=len(size))
    keep = size >= min_size
    if statistic == "height-range-per-size":  # a component has a cycle iff nothing dangles
        keep &= dangling > 0
    ids = np.flatnonzero(keep)
    if not len(ids):
        raise Empty("no qualifying component")
    sizes = size[ids].tolist()

    details = {"statistic": statistic, "min_size": min_size, "component_count": len(ids)}
    if statistic == "jump-frequency-vector":
        # each kept component's frequency of each jump increment that the
        # kept components make, sorted by repr (0.0 where one makes no jump)
        xy, src = _lattice_coords(forest, statistic), forest.src
        # an int64 increment wraps only where an axis spans 2**63 or more
        if max(int(hi) - int(lo) for lo, hi in zip(xy.min(axis=0), xy.max(axis=0))) >= 2**63:
            for s, t in zip(xy[src].tolist(), xy[forest.succ[src]].tolist()):
                if not _in_int64(step := [y - x for x, y in zip(s, t)]):
                    raise TooLarge(f"jump increment {vertex(step)} from {vertex(s)} is past int64")
        steps, inc = np.unique(xy[forest.succ[src]] - xy[src], axis=0, return_inverse=True)
        counts = np.zeros((len(size), len(steps)), dtype=np.int64)
        np.add.at(counts, (forest.comp[src], inc.ravel()), 1)
        counts, steps = counts[ids], list(map(vertex, steps.tolist()))
        cols = sorted(np.flatnonzero(counts.any(axis=0)).tolist(), key=lambda j: repr(steps[j]))
        total = counts.sum(axis=1, keepdims=True)
        freq = np.divide(counts[:, cols], total, out=np.zeros((len(ids), len(cols))),
                         where=total > 0)
        values = list(map(tuple, freq.tolist()))
        cvs = tuple(_coefficient_of_variation(col) for col in zip(*values))
        details["alphabet"] = [str(steps[j]) for j in cols]
        details["cv_vector"] = list(cvs)
        details["cv"] = max(cvs) if cvs else 0.0
    else:
        if statistic == "mean-in-degree":  # a component's arcs all start at its members
            count = size - dangling
        elif statistic == "leaf-fraction":  # members with no preimage
            count = np.bincount(forest.comp[np.diff(forest.ptr) == 0], minlength=len(size))
        else:  # a height range is the largest depth, as the end has depth 0
            count = np.zeros(len(size), dtype=np.int64)
            np.maximum.at(count, forest.comp, forest.depth)
        values = [k / n for k, n in zip(count[ids].tolist(), sizes)]
        details["cv"] = _coefficient_of_variation(values)

    truncated = int((dangling[ids] > 0).sum())
    return ProbeReport(
        probe="component-statistic-survey",
        units=tuple(ids.tolist()),
        values=tuple(values),
        half_widths=(0.0,) * len(ids),
        trials=tuple(sizes),
        truncation_fraction=truncated / len(ids),
        details=details,
    )


def _coefficient_of_variation(values):
    vals = list(values)
    if len(set(vals)) == 1:
        return 0.0
    mean = math.fsum(vals) / len(vals)
    if mean == 0:
        return 0.0
    var = math.fsum((x - mean) ** 2 for x in vals) / len(vals)
    return math.sqrt(var) / abs(mean)


# -- nested level averages --------------------------------------------------------


def nested_level_average(forest, f, v, n_max):
    """Averages of f over the nested sets D_n(F^n(v)), while the line of
    v stays inside the window. Flags an average as truncated when the
    backward cone leaves the interior, since the window may then hide
    part of the averaging set."""
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
        level = forest.vertices_of(rows)  # never empty: v is in D_n(F^n v)
        value = math.fsum(float(f(w)) for w in level) / len(level)
        out.append(LevelAverage(n=n, value=value, count=len(level), truncated=not clean))
    return out


# -- torus occupation ---------------------------------------------------------------


def cluster_frequency(forest, component_id, walk_steps, seed):
    """Fraction of time a lazy random walk on the torus window spends in
    one component. The walk steps by the symmetrized observed jump
    increments, holds with probability 1/2, and is shared across calls
    with the same seed, so component frequencies partition one."""
    wrap = forest.metadata.get("wrap")
    if not wrap or any(w is None for w in wrap):
        raise NeedsTorus("forest window is not toroidal on every axis")
    if not 0 <= component_id < len(forest.comp_ptr) - 1:
        raise ConfigError(f"component_id {component_id}: no such component")
    if walk_steps < 100:
        raise ConfigError(f"walk_steps must be at least 100 for the 100 half-width "
                          f"blocks, got {walk_steps}")
    box = forest.metadata["box"]
    lows = np.array([lo for lo, hi in box], dtype=np.int64)
    lens = np.array([hi - lo + 1 for lo, hi in box], dtype=np.int64)

    xy = _lattice_coords(forest, "cluster_frequency")
    if ((xy < lows) | (xy >= lows + lens)).any():
        raise NeedsTorus("a window vertex lies outside the torus box")
    # the distinct jump increments mod the box (as cells of the box), each
    # taken to the residue of least size, and their negatives
    step = (xy[forest.succ[forest.src]] - xy[forest.src]) % lens
    step = np.stack(np.unravel_index(np.unique(np.ravel_multi_index(step.T, lens)), lens), -1)
    inc = np.where(2 * step > lens, step - lens, step)
    moves = np.unique(np.concatenate([inc, -inc]), axis=0)

    rng = rng_for(seed, _ROLE_WALK)
    hold = rng.random(walk_steps) < 0.5
    idx = rng.integers(0, len(moves), size=walk_steps)
    disp = moves[idx] * (~hold)[:, None]
    cell = np.cumsum(np.vstack([xy[:1] - lows, disp]), axis=0) % lens
    # the row of each site of the box, as the lattice sampler numbers them
    rowmap = np.full(int(lens.prod()), -1, dtype=np.int64)
    rowmap[np.ravel_multi_index(tuple((xy - lows).T), lens)] = np.arange(len(xy))
    rows = rowmap[np.ravel_multi_index(tuple(cell.T), lens)]
    if (rows < 0).any():
        raise UnknownVertex(repr(vertex((cell[rows.argmin()] + lows).tolist())))
    hits = forest.comp[rows] == component_id
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


# -- in-degree transport ---------------------------------------------------------------


def in_degree_profile(forest, region=None):
    """Exact mean and histogram of in-window preimage counts."""
    indeg = np.diff(forest.ptr)
    if region is not None:
        if not isinstance(region, Iterable):
            raise ConfigError(f"region must be an iterable of vertices, got {region!r}")
        indeg = indeg[forest.rows_of(region)]
    if not len(indeg):
        raise ConfigError("region is empty: no vertex to average over")
    counts = np.bincount(indeg).tolist()
    return InDegreeProfile(
        mean=Fraction(int(indeg.sum()), len(indeg)),
        histogram={k: c for k, c in enumerate(counts) if c},
        region_size=len(indeg),
    )


# -- lockstep chain models ------------------------------------------------------------

# Walker-steps per block: a block of b steps for k chains in `trials` trials
# has b * trials * k <= this many (at least one step).
_BLOCK_WALKER_STEPS = 1 << 17


class LatticeChainModel:
    """k coalescing jump chains on Z^d advanced in lockstep slices.

    Valid for level-graded kernels, where some u has u.a = 1 for every
    atom (the cycle-free witness is then that grading), and for starts that
    share a level, so that orbit intersection is equivalent to equal-time
    collision.
    """

    def __init__(self, jumps):
        holds, u = _law(jumps).half_space
        if not holds:
            raise CyclicComponent("chain model needs a cycle-free kernel")
        speeds = {sum(Fraction(c) * x for c, x in zip(a, u)) for a in jumps.atoms}
        if len(speeds) != 1:
            raise ConfigError("kernel is not level-graded; slices would miss merges")
        self.jumps = jumps
        self.witness = tuple(u)
        self._delta = tuple(x - y for x, y in zip(max(jumps.atoms), min(jumps.atoms)))
        _int64_rows(jumps)  # the lockstep slices step int64 rows

    def default_starts(self, k):
        return tuple(tuple(i * c for c in self._delta) for i in range(k))

    def at_distance(self, origin, r):
        o = _point("origin", origin, self.jumps.dimension)
        return tuple(x + r * c for x, c in zip(o, self._delta))

    def _check_levels(self, starts):
        levels = {
            sum(Fraction(c) * x for c, x in zip(s, self.witness)) for s in starts
        }
        if len(levels) != 1:
            raise ConfigError("starts must share a level")

    def run(self, starts, budget, trials, seed):
        """Final group labels: shape (trials, k), equal labels = merged."""
        d = self.jumps.dimension
        starts = [_point(f"starts[{i}]", s, d) for i, s in enumerate(starts)]
        for i, s in enumerate(starts):
            if not _in_int64(s):
                raise TooLarge(f"starts[{i}] {s} is past int64")
        self._check_levels(starts)
        atoms, cum = self.jumps.atom_rows, self.jumps.cdf

        def advance(cur, u):
            return _lattice_block(atoms, atom_index(cum, u), cur)

        cur = np.array(starts, dtype=np.int64).reshape(1, len(starts), d)
        return _coalesce(starts, cur.repeat(trials, axis=0), advance, budget, trials, seed)


class GraphChainModel:
    """k coalescing simple random walks on a finite graph, synchronous
    steps, merged on equal-time meetings (the space-time component
    rule)."""

    def __init__(self, graph, starts=()):
        self.graph = graph
        self.starts = tuple(starts)
        verts, _, nbrs = graph.frame
        degs = list(map(len, nbrs))
        if 0 in degs:
            raise BadGraph(f"vertex {verts[degs.index(0)]!r} is isolated; a walker cannot step")
        width = max(degs)
        self._nbr = np.array([ns + (0,) * (width - len(ns)) for ns in nbrs], dtype=np.int64)
        self._deg = np.array(degs, dtype=np.int64)

    def default_starts(self, k):
        if k > len(self.starts):
            raise ConfigError(f"model provides only {len(self.starts)} starts")
        return self.starts[:k]

    def at_distance(self, origin, r):
        if origin not in self.graph.adjacency:
            raise UnknownVertex(repr(origin))
        dist = {origin: 0}
        frontier = [origin]
        while frontier:
            nxt = []
            for v in frontier:
                for u in self.graph.neighbors(v):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        at = sorted((v for v, k in dist.items() if k == r), key=repr)
        if not at:
            raise ConfigError(f"no vertex at distance {r}")
        return at[0]

    def run(self, starts, budget, trials, seed):
        row = self.graph.frame.row
        for s in starts:
            if s not in row:
                raise UnknownVertex(repr(s))
        nbr, deg = self._nbr, self._deg

        def advance(cur, u):
            path = np.empty(u.shape, dtype=np.int64)
            for t, draw in enumerate(u):
                cur = path[t] = nbr[cur, (draw * deg[cur]).astype(np.int64)]
            return path, cur

        cur = np.array([[row[s] for s in starts]], dtype=np.int64)
        return _coalesce(starts, cur.repeat(trials, axis=0), advance, budget, trials, seed)


def _coalesce(starts, cur, advance, budget, trials, seed):
    """Labels, shape (trials, k), of k coalescing chains from `starts`,
    stepped in lockstep for at most `budget` steps; `cur` holds every
    walker's start state, one (k, ...) row per trial.

    A group's label is its smallest member. That member has never been
    absorbed, so the group follows the member's own path, and the chains
    can be advanced in blocks as independent walkers: `advance(cur, u)`
    maps uniforms u, shape (b, n, k), to exact integer site ids of every
    walker's next b positions, and to its end state. Merges are read off
    those ids once per block. One rng.random((b, trials, k)) call draws
    the same stream as b calls of rng.random((trials, k)), one per step;
    trials whose chains have all merged still draw but are not advanced.
    """
    k = len(starts)
    rng = rng_for(seed, _ROLE_CHAINS)
    leader = np.tile(np.arange(k), (trials, 1))
    ids = {}
    at_start = np.array([ids.setdefault(s, len(ids)) for s in starts], dtype=np.int64)
    _merge_block(np.broadcast_to(at_start, (1, trials, k)), leader)
    block = max(1, _BLOCK_WALKER_STEPS // max(1, trials * k))
    live = np.flatnonzero(leader.any(axis=1))
    done = 0
    while done < budget and len(live):
        b = min(block, budget - done)
        u = rng.random((b, trials, k))
        keys, cur[live] = advance(cur[live], u[:, live])
        sub = leader[live]
        _merge_block(keys, sub)
        leader[live] = sub
        live = live[sub.any(axis=1)]
        done += b
    return leader


def _lattice_block(atoms, idx, cur):
    """Site ids of the walks cur + cumsum(atoms[idx]) and their end points.

    An id is the mixed-radix offset of a point in the block's bounding box,
    which running sums of the atoms' ids track without building the points;
    a box of 2^63 or more sites falls back to ranks of the points.
    """
    b = len(idx)
    lo = [c + b * min(a, 0) for c, a in zip(cur.min(axis=(0, 1)).tolist(),
                                            atoms.min(axis=0).tolist())]
    hi = [c + b * max(a, 0) for c, a in zip(cur.max(axis=(0, 1)).tolist(),
                                            atoms.max(axis=0).tolist())]
    if not (_in_int64(lo) and _in_int64(hi)):
        raise TooLarge("a chain from starts can step past int64 within the budget")
    spans = [h - l + 1 for l, h in zip(lo, hi)]
    if math.prod(spans) >= 1 << 63:
        path = cur + np.cumsum(atoms[idx], axis=0)
        _, ids = np.unique(path.reshape(-1, path.shape[-1]), axis=0, return_inverse=True)
        return ids.reshape(path.shape[:-1]), path[-1]
    radix = np.cumprod([1] + spans[:-1]).astype(np.int64)
    keys = (cur - lo) @ radix + np.cumsum((atoms @ radix)[idx], axis=0)
    return keys, lo + keys[-1][..., None] // radix % np.array(spans)


def _merge_block(keys, leader):
    """Relabel `leader` in place with the meetings in one block.

    keys, shape (b, trials, k), holds each walker's own site at each step.
    Per trial, take the earliest step t at which two current leaders share a
    site, give every walker led from that site the smallest leader index
    there, and search again from t: another site may meet at t as well.
    """
    b, trials, k = keys.shape
    i, j = np.triu_indices(k, 1)
    meet = keys[:, :, i] == keys[:, :, j]
    rows = np.flatnonzero(meet.any(axis=(0, 2)))
    since = np.zeros(len(rows), dtype=np.int64)
    steps = np.arange(b)[:, None, None]
    while len(rows):
        lead = leader[rows] == np.arange(k)
        due = meet[:, rows] & (lead[:, i] & lead[:, j]) & (steps >= since[:, None])
        due = due.transpose(1, 0, 2).reshape(len(rows), -1)
        hit = due.any(axis=1)
        rows, lead = rows[hit], lead[hit]
        first = due[hit].argmax(axis=1)
        since = first // len(i)
        at = keys[since, rows]
        here = (at == at[np.arange(len(rows)), i[first % len(i)]][:, None]) & lead
        sub = leader[rows]
        moved = np.take_along_axis(here, sub, axis=1)
        leader[rows] = np.where(moved, here.argmax(axis=1)[:, None], sub)


def _as_chain_model(model):
    if hasattr(model, "run"):
        return model
    return LatticeChainModel(model)


def _distinct_counts(leader):
    s = np.sort(leader, axis=1)
    return 1 + (np.diff(s, axis=1) > 0).sum(axis=1)


def _binomial_half_width(freq, trials):
    return 4.0 * math.sqrt(max(freq * (1.0 - freq), 0.0) / trials)


def connectivity_decay_probe(model, origin, distance_list, trials, budget, seed):
    """Fraction of sampled forests connecting the origin to a vertex at
    each listed distance, within the step budget."""
    _check_steps("trials", trials, least=1)
    _check_steps("budget", budget)
    _check_steps("seed", seed, least=None)
    for i, r in enumerate(distance_list):
        _check_steps(f"distance_list[{i}]", r)
    model = _as_chain_model(model)
    values = []
    halves = []
    censored = 0
    for pos, r in enumerate(distance_list):
        if r == 0:
            values.append(1.0)
            halves.append(0.0)
            continue
        x = model.at_distance(origin, r)
        leader = model.run([origin, x], budget, trials, derive_seed(seed, pos))
        merged = int((leader[:, 0] == leader[:, 1]).sum())
        censored += trials - merged
        freq = merged / trials
        values.append(freq)
        halves.append(_binomial_half_width(freq, trials))
    total = trials * sum(1 for r in distance_list if r > 0)
    return ProbeReport(
        probe="connectivity-decay",
        units=tuple(distance_list),
        values=tuple(values),
        half_widths=tuple(halves),
        trials=(trials,) * len(distance_list),
        truncation_fraction=censored / total if total else 0.0,
        details={
            "origin": str(origin),
            "distances": list(distance_list),
            "budget": budget,
            "trials": trials,
            "seed": seed,
        },
    )


def count_components_probe(model, k, budget, trials, seed, starts=None):
    """Frequency with which k coalescing chains remain in k distinct
    components at the end of the budget."""
    _check_steps("k", k, least=1)
    _check_steps("trials", trials, least=1)
    _check_steps("budget", budget)
    _check_steps("seed", seed, least=None)
    freq, unresolved = 1.0, 0.0  # one chain is one component, with no model run
    if k > 1:
        model = _as_chain_model(model)
        if starts is None:
            starts = model.default_starts(k)
        if len(starts) != k:
            raise ConfigError("need exactly k starts")
        distinct = _distinct_counts(model.run(list(starts), budget, trials, seed))
        freq = float((distinct == k).mean())
        unresolved = float((distinct > 1).mean())
    return ProbeReport(
        probe="count-components",
        units=(k,),
        values=(freq,),
        half_widths=(_binomial_half_width(freq, trials),),
        trials=(trials,),
        truncation_fraction=unresolved,
        details={"k": k, "budget": budget, "trials": trials, "seed": seed},
    )


# -- Green decay --------------------------------------------------------------------


def one_endedness_probe(jumps, n_list, trials, seed):
    """Monte-Carlo averages of the Green value at the chain position
    after n steps, one estimate per listed n."""
    _check_steps("trials", trials, least=1)
    _check_steps("seed", seed, least=None)
    for i, n in enumerate(n_list):
        _check_steps(f"n_list[{i}]", n)
    atoms, cum = jumps.atom_rows, jumps.cdf
    endpoints = {}
    for pos, n in enumerate(n_list):
        rng = rng_for(derive_seed(seed, pos), _ROLE_CHAINS)
        idx = atom_index(cum, rng.random((trials, n)))
        ends = atoms[idx].sum(axis=1)
        endpoints[n] = [tuple(int(c) for c in e) for e in ends]
    targets = sorted({y for ends in endpoints.values() for y in ends})
    table = green_table(jumps, targets)
    values = []
    halves = []
    for n in n_list:
        gs = [float(table[y]) for y in endpoints[n]]
        mean = math.fsum(gs) / trials
        var = math.fsum((g - mean) ** 2 for g in gs) / trials
        values.append(mean)
        halves.append(4.0 * math.sqrt(var / trials))
    return ProbeReport(
        probe="one-endedness",
        units=tuple(n_list),
        values=tuple(values),
        half_widths=tuple(halves),
        trials=(trials,) * len(n_list),
        truncation_fraction=0.0,
        details={"n_list": list(n_list), "trials": trials, "seed": seed},
    )


# -- level-set bijection ----------------------------------------------------------------


def right_stable_allocation(children, parents, parent_of):
    """Right-stable matching from an ordered child cycle into an ordered
    parent cycle. children must be listed in nondecreasing parent
    position, so the single wrap point sits at the list end and the
    periodic lift adds one full parent lap per child lap. Returns
    (matching, unmatched)."""
    m, n = len(children), len(parents)
    pos = {p: i for i, p in enumerate(parents)}
    raws = [pos[parent_of[x]] for x in children]
    if any(a > b for a, b in zip(raws, raws[1:])):
        raise ConfigError("children must be ordered by parent position")
    matching = {}
    unmatched = []
    taken = set()
    for j, x in enumerate(children):
        base = pos[parent_of[x]]
        tau = None
        for i in range(1, m + n + 1):
            idx = j + i
            c2 = children[idx % m]
            lifted = pos[parent_of[c2]] + (idx // m) * n
            if lifted - base >= i:
                tau = i
                break
        if tau is None:
            unmatched.append(x)
            continue
        target = parents[(base + tau) % n]
        if target in taken:
            unmatched.append(x)
            continue
        taken.add(target)
        matching[x] = target
    return matching, unmatched


def level_set_bijection(forest, seed):
    """Injective matching of each interior vertex into the level set of
    its jump image, built by right-stable allocation: canonical cyclic
    order on each level row, seeded random order inside sibling groups.

    On toroidal windows the rows are the lattice levels, whose equal
    counts keep the tau search terminating even though every line wraps
    a cycle; elsewhere rows are the per-component height classes, and
    vertices squeezed out at the window edge are surfaced as unmatched.
    """
    _check_steps("seed", seed, least=None)
    succ, dom = forest.succ, np.flatnonzero(forest.is_interior)
    wrap = forest.metadata.get("wrap")
    if wrap and all(w is not None for w in wrap):
        key = _lattice_coords(forest, "level_set_bijection")[:, -1]
        flat = key[succ[dom]] == key[dom]
        if flat.any():
            x = forest.verts[dom[flat.argmax()]]
            raise CyclicComponent(f"jump of {x!r} stays on its own level")
    else:
        # a component with a cycle has depth -1 on every row
        if (forest.depth[dom] < 0).any():
            raise CyclicComponent("bijection needs cycle-free components")
        # within a component, depth is height up to a constant, so
        # (component, depth) keys and orders the height classes; a radix of
        # the largest depth + 2 keeps a cycle's depth -1 off the other keys
        key = forest.comp * (int(forest.depth.max(initial=0)) + 2) + forest.depth
    rng = rng_for(seed, _ROLE_ORDER)

    # the rows level by level, each level in row order (so vertex order),
    # and the children by their parents' places there, siblings in row order
    order = np.argsort(key, kind="stable")
    place = np.argsort(order)
    at = place[succ[dom]]
    by_parent = np.argsort(at, kind="stable")
    kids, at = dom[by_parent], at[by_parent]
    sibs = np.unique(at, return_index=True)[1].tolist() + [len(kids)]
    for a, b in zip(sibs, sibs[1:]):
        kids[a:b] = kids[a:b][rng.permutation(b - a)]

    # all children aiming at one parent row are allocated together, so
    # injectivity is global even when jumps skip levels at mixed depths
    levels = key[order]
    keys, first = np.unique(levels[at], return_index=True)
    groups = first.tolist() + [len(kids)]
    lo, hi = (np.searchsorted(levels, keys, side).tolist() for side in ("left", "right"))
    verts, parent_of = forest.verts, succ.tolist()
    matching, unmatched = {}, []
    for a, b, p, q in zip(groups, groups[1:], lo, hi):
        got, missed = right_stable_allocation(kids[a:b].tolist(), order[p:q].tolist(), parent_of)
        matching.update((verts[x], verts[t]) for x, t in got.items())
        unmatched += missed
    unmatched = frozenset(map(verts.__getitem__, unmatched))
    return LevelBijection(matching=matching, unmatched=unmatched)


# -- canopy negative control ---------------------------------------------------------


def canopy_distinguishability_demo(depth, seed):
    """Checks that the hop-count invariant is constant on every level
    set of a canopy window yet varies across level sets, so level-set
    membership is detectable there."""
    forest, invariant = canopy_cmt(depth, seed)
    constant = all(len({invariant[w] for w in level_set(forest, v, n)[0]}) == 1
                   for v in forest.verts for n in range(1, depth + 2))
    observed = sorted(set(invariant.values()))  # every vertex is in its own level sets
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
