"""Translation-invariant jump chains: exact kernel powers and couplings.

Kernel powers, Green values and total-variation distances are computed in
exact rational arithmetic: the n-step law is carried as integer numerators
over a common denominator D^n, with Fractions only materialized at the
boundary. Couplings are single random experiments (seeded, replayable);
the collision probe aggregates trials and reports a frequency with a
four-sigma binomial half-width.
"""

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import BadDimension, CyclicComponent, TooLarge, UnknownVertex, _check_steps
from .forest import array_vertices, coords, vertex
from .lattice import atom_cdf, check_cycle_free, in_lattice
from .seeds import derive_seed, rng_for

_ROLE_MEET = 0xC1
_ROLE_SHIFT = 0xC2
_ROLE_CROSS = 0xC3

_SUPPORT_CAP = 10**8
_FAR = 2**62  # past every int64 box and coordinate, and inside int64


@dataclass
class KernelPower:
    n: int
    distribution: dict  # increment vector -> Fraction, summing to one


@dataclass
class GreenValue:
    value: Fraction
    probability: bool  # True when value is the full series, P[hit]
    terms: int


@dataclass
class CouplingResult:
    success: bool
    coupling_time: int = None
    shift: int = None
    trace: tuple = None  # optional (path_x, path_y)


@dataclass
class CollisionEstimate:
    trials: int
    successes: int
    budget: int
    frequency: float
    half_width: float  # 4 * sqrt(f (1-f) / trials)
    mean_steps: float = None


def _vec(v, d):
    """v as a tuple of d ints; a bare int is a point of Z^1."""
    vec = tuple(int(c) for c in v) if isinstance(v, (tuple, list, np.ndarray)) else (int(v),)
    if len(vec) != d:
        raise BadDimension(f"{v!r} has {len(vec)} coordinates, not {d}")
    return vec


@dataclass
class _Power:
    """A kernel power's support: the nonzero numerators num in ascending
    order of their keys, the mixed-radix ids (cells @ strides, last axis
    least significant) of the cells in a box of the given extent. Sorted
    keys order the rows as their increments origin + spacing * cells.
    Origin, spacing, extent and keys are int64 arrays, or object arrays
    of Python ints once the box would reach _FAR."""

    origin: np.ndarray
    spacing: np.ndarray
    extent: np.ndarray
    strides: list
    keys: np.ndarray
    num: np.ndarray  # object dtype: exact Python ints

    @cached_property
    def cells(self):
        return self.keys[:, None] // np.array(self.strides, self.keys.dtype) % self.extent

    def find(self, cells):
        """(i, r) for each cells[i] the power charges, at its row r."""
        inside = ((cells >= 0) & (cells < self.extent)).all(axis=1).nonzero()[0]
        cells = cells[inside]
        keys = cells[:, -1]
        for axis, stride in enumerate(self.strides[:-1]):
            keys = keys + cells[:, axis] * stride
        at = self.keys.searchsorted(keys)
        hit = self.keys.take(at, mode="clip") == keys
        return inside[hit], at[hit]


def _strides(extent):
    """Place values of the mixed-radix ids over a box of the given extent."""
    strides = [1]
    for n in extent[:0:-1]:
        strides.append(strides[-1] * n)
    return strides[::-1]


def _power_numerators(jumps):
    """Yield (m, power, den**m) for m = 0, 1, 2, ...: the m-step law as a
    _Power of integer numerators over den**m, den the lcm of the weight
    denominators. Each power is stepped from the last only when the next
    item is asked for.

    Each axis is shifted by the atoms' least coordinate on it (lift) and
    divided by the gcd of the shifted coordinates (spacing), so an atom
    moves every cell by a fixed offset and the m-th power lies in a box
    of extent m * growth + 1, growth the largest offsets. Its support has
    about m**r points, r the rank of the atoms' differences. A step
    re-keys the rows for the next box (a digit's place value changes only
    where a later axis grows), adds each atom's key offset, sorts the
    rows by key and sums the runs of equal keys. Keys are int64 while the
    step from the power keeps every coordinate and the box's cell count
    below _FAR, and Python ints from then on."""
    den = math.lcm(*(w.denominator for w in jumps.weights))
    weights = [int(w * den) for w in jumps.weights]
    lift = list(map(min, zip(*jumps.atoms)))
    rel = [[x - y for x, y in zip(a, lift)] for a in jumps.atoms]
    spacing = [math.gcd(*axis) or 1 for axis in zip(*rel)]
    offsets = [[x // s for x, s in zip(r, spacing)] for r in rel]
    growth = list(map(max, zip(*offsets)))
    reach = max(abs(c) for a in jumps.atoms for c in a)
    extent = [1] * jumps.dimension
    keys, num = np.zeros(1, dtype=np.int64), np.ones(1, dtype=object)
    for m in itertools.count():
        step = [n + g for n, g in zip(extent, growth)]
        if keys.dtype != object and max((m + 1) * reach, math.prod(step)) >= _FAR:
            keys = keys.astype(object)
        power = _Power(np.array([m * x for x in lift], keys.dtype), np.array(spacing, keys.dtype),
                       np.array(extent, keys.dtype), _strides(extent), keys, num)
        yield m, power, den**m
        strides = _strides(step)
        base = keys
        for old, new, n in zip(power.strides, strides, extent):
            if new != old:
                base = base + keys // old % n * (new - old)
        extent = step
        keys = np.concatenate([base + sum(x * s for x, s in zip(o, strides)) for o in offsets])
        order = keys.argsort(kind="stable")  # merges the atoms' sorted runs
        keys = keys[order]
        first = np.concatenate(([True], keys[1:] != keys[:-1])).nonzero()[0]
        if len(first) > _SUPPORT_CAP:
            raise TooLarge(f"kernel support exceeded {_SUPPORT_CAP} points")
        num = np.concatenate([power.num if w == 1 else power.num * w for w in weights])
        num = np.add.reduceat(num[order], first)
        keys = keys[first]


def _check_sweep(name, steps):
    """TooLarge naming the argument behind a sweep of steps powers past
    sys.maxsize, which no sweep (nor itertools.islice) gets to."""
    if steps >= sys.maxsize:
        raise TooLarge(f"{name} = {steps} needs a sweep past {sys.maxsize} steps")


def kernel_power(jumps, n):
    """Exact law of the n-step increment X_n - X_0."""
    _check_steps("n", n)
    _check_sweep("n", n)
    _, power, total = next(itertools.islice(_power_numerators(jumps), n, None))
    points = power.origin + power.spacing * power.cells
    probs = {vertex(p): Fraction(c, total)
             for p, c in zip(points.tolist(), power.num.tolist())}
    return KernelPower(n=n, distribution=probs)


def kernel_power_csv(kp):
    """Lexicographically sorted CSV with exact fraction probabilities."""
    items = sorted(kp.distribution.items(), key=lambda kv: coords(kv[0]))
    d = len(coords(items[0][0]))
    header = ",".join(f"x{i}" for i in range(d)) + ",probability"
    lines = [header]
    for v, p in items:
        lines.append(",".join(map(str, coords(v))) + f",{p}")
    return "\n".join(lines) + "\n"


def _last_visit(jumps, witness, vecs, cap=None):
    """Largest m <= cap with K^m(0, y) > 0 possible for some y in vecs: each
    step raises u.x by at least delta = min u.a > 0 for the cycle-free
    witness u. A y whose m passes sys.maxsize raises TooLarge, since no
    sweep gets that far."""
    delta = min(sum(Fraction(c) * x for c, x in zip(a, witness)) for a in jumps.atoms)
    horizon = 0
    for vec in vecs:
        t = sum(Fraction(c) * x for c, x in zip(vec, witness))
        if t >= 0:
            last = math.floor(t / delta) if cap is None else min(math.floor(t / delta), cap)
            if last > sys.maxsize:
                raise TooLarge(f"target {vertex(vec)!r} needs a sweep of {last} steps, "
                               f"past {sys.maxsize}")
            horizon = max(horizon, last)
    return horizon


def _green_sums(jumps, vecs, horizon):
    """Sum of K^m(0, y) over 0 <= m <= horizon for each vector y, in one sweep."""
    keys = list(dict.fromkeys(vecs))
    exact = np.array(keys, dtype=object).reshape(len(keys), jumps.dimension)
    # a coordinate past _FAR is off every int64 power, and clamping keeps it so
    clamped = exact.clip(-_FAR, _FAR).astype(np.int64)
    acc = [Fraction(0)] * len(keys)
    for _, power, scale in itertools.islice(_power_numerators(jumps), horizon + 1):
        offset = (exact if power.keys.dtype == object else clamped) - power.origin
        cells = offset // power.spacing
        cells[(offset % power.spacing != 0).any(axis=1)] = -1
        hits, rows = power.find(cells)
        for i, c in zip(hits.tolist(), power.num[rows].tolist()):
            acc[i] += Fraction(c, scale)
    return dict(zip(keys, acc))


def green_function(jumps, target, horizon=None):
    """Sum of K^m(0, target) over 0 <= m <= horizon, exactly.

    For a cycle-free kernel the half-space witness bounds the largest m that
    can contribute, so the horizon may be omitted and the result is the full
    series: the probability that the chain from 0 ever visits the target.
    Otherwise the series may diverge and an explicit horizon is required.
    The probability flag is on only for the full series: the kernel is
    cycle-free and the horizon reaches the witness bound.
    """
    diff = _vec(target, jumps.dimension)
    if horizon is not None:
        _check_steps("horizon", horizon)
    rep = check_cycle_free(jumps)
    if horizon is None and not rep.holds:
        raise CyclicComponent("kernel admits zero convex combinations; pass a horizon")
    # past the horizon a bound only tells that the series is not full
    cap = None if horizon is None else horizon + 1
    bound = _last_visit(jumps, rep.witness, [diff], cap) if rep.holds else None
    if horizon is None:
        horizon = bound
    # every term past the witness bound is zero, so the sweep stops there
    steps = horizon if bound is None else min(horizon, bound)
    _check_sweep("horizon", steps)
    value = _green_sums(jumps, [diff], steps)[diff]
    return GreenValue(value=value, probability=rep.holds and horizon >= bound,
                      terms=horizon + 1)


def green_table(jumps, targets):
    """Full Green series for many targets in one kernel-power sweep.

    Matches green_function(jumps, y) exactly for cycle-free kernels; the
    shared sweep makes Monte-Carlo averaging over sampled endpoints
    affordable. Every spelling of a target passed is a key (5 and (5,))."""
    rep = check_cycle_free(jumps)
    if not rep.holds:
        raise CyclicComponent("green table needs a cycle-free kernel")
    vecs = {y: _vec(y, jumps.dimension) for y in targets}
    sums = _green_sums(jumps, vecs.values(), _last_visit(jumps, rep.witness, vecs.values()))
    return {y: sums[vec] for y, vec in vecs.items()}


def _overlap(a, b, ratio):
    """Sum over the increments both powers charge of min(ratio * a, b)."""
    shift, rest = (a.origin - b.origin) // b.spacing, (a.origin - b.origin) % b.spacing
    if rest.any() or ((shift + a.extent <= 0) | (shift >= b.extent)).any():
        return 0  # a's box, from its cell 0 at shift among b's cells, misses b's
    i, r = b.find(a.cells + shift)
    return np.minimum(a.num[i] * ratio, b.num[r]).sum()


def tv_profile(jumps, n_max, k=1):
    """Exact TV distances between kernel powers k steps apart.

    Entry n-1 is TV(K^n(0,.), K^{n+k}(0,.)) for n = 1..n_max, on the
    half-sum-of-absolute-differences normalization, so values lie in [0,1].
    Both laws have mass one, so that half-sum is one less their overlap.
    Only the latest k + 1 powers are held.
    """
    _check_steps("n_max", n_max)
    _check_steps("k", k)
    _check_sweep("n_max + k", n_max + k)
    out, window = [], []
    for _, b, scale_b in itertools.islice(_power_numerators(jumps), 1, n_max + k + 1):
        window.append((b, scale_b))
        if len(window) > k:
            a, scale_a = window.pop(0)
            out.append(1 - Fraction(_overlap(a, b, scale_b // scale_a), scale_b))
            del a  # power n is not needed while the next power is stepped
    return out


def tv_consecutive(jumps, n, k=1):
    """TV distance between the n-th and (n+k)-th kernel powers from 0."""
    _check_steps("n (tv_profile's n_max)", n, least=1)
    return tv_profile(jumps, n, k)[-1]


# -- couplings ------------------------------------------------------------------


def _difference_kernel(jumps):
    """Increments of X - Y for independent steps X, Y, with their atom_cdf."""
    diff = {}
    for a, wa in zip(jumps.atoms, jumps.weights):
        for b, wb in zip(jumps.atoms, jumps.weights):
            v = tuple(x - y for x, y in zip(a, b))
            diff[v] = diff.get(v, Fraction(0)) + wa * wb
    vecs = sorted(diff)
    return np.array(vecs, dtype=np.int64), atom_cdf([diff[v] for v in vecs])


def _pair_steps(jumps, vecs, cum, u):
    """The steps (a, b) of X and Y behind the difference draws u.

    The uniform that picks v = a - b in cum also picks the pair: v's
    interval is split among the pairs with that difference in proportion
    to w_a * w_b, and the pair is the part the uniform falls in. Each
    interval's last split is its own end, so the pair's difference is
    always the v that cum picks.
    """
    d = jumps.dimension
    group = {v: g for g, v in enumerate(map(tuple, vecs.tolist()))}
    pairs = sorted(((group[tuple(x - y for x, y in zip(a, b))], a, b, wa * wb)
                    for a, wa in zip(jumps.atoms, jumps.weights)
                    for b, wb in zip(jumps.atoms, jumps.weights)), key=lambda p: p[0])
    splits, steps = [], []
    for g, part in itertools.groupby(pairs, key=lambda p: p[0]):
        part = list(part)
        lo, hi = (float(cum[g - 1]) if g else 0.0), float(cum[g])
        total, acc = sum(w for *_, w in part), Fraction(0)
        for _, a, b, w in part:
            acc += w
            splits.append(hi if acc == total else min(hi, lo + (hi - lo) * float(acc / total)))
            steps.append((_vec(a, d), _vec(b, d)))
    pick = np.searchsorted(splits, u, side="right")
    steps = np.array(steps, dtype=np.int64).reshape(len(steps), 2, d)
    return steps[pick, 0], steps[pick, 1]


def meet_and_stick_coupling(jumps, x, y, budget, seed, record_trace=False):
    """Run two independent chains until they share a position at equal times.

    One seeded experiment: each step draws the difference X - Y. On
    success the chains could be glued from the meeting index on; with
    record_trace the glued paths over the whole budget are decoded from
    the same draws (see _pair_steps), so a trace never changes the result.
    """
    _check_steps("budget", budget)
    _check_steps("seed", seed, least=None)
    d = jumps.dimension
    x0, y0 = _vec(x, d), _vec(y, d)
    vecs, cum = _difference_kernel(jumps)
    rng = rng_for(seed, _ROLE_MEET)
    pos = np.array(tuple(a - b for a, b in zip(x0, y0)), dtype=np.int64)
    met = 0 if x0 == y0 else None
    # most pairs meet within a few steps: draw 64 steps first, then double
    # up to 4096 per chunk (the same stream as one draw per step)
    step, chunk, drawn = 0, 64, []
    while met is None and step < budget:
        u = rng.random(min(chunk, budget - step))
        traj = pos + np.cumsum(vecs[np.searchsorted(cum, u, side="right")], axis=0)
        zero = (traj == 0).all(axis=1)
        if zero.any():
            met = step + int(zero.argmax()) + 1
        if record_trace:
            drawn.append(u)
        pos = traj[-1]
        step += len(u)
        chunk = min(2 * chunk, 4096)
    result = CouplingResult(met is not None, met, None if met is None else 0)
    if record_trace:  # X steps by a throughout, Y by b until the chains meet and with X after
        drawn.append(rng.random(budget - step))
        a, b = _pair_steps(jumps, vecs, cum, np.concatenate(drawn))
        xs = np.vstack([x0, x0 + np.cumsum(a, axis=0)])
        ys = np.vstack([y0, y0 + np.cumsum(b, axis=0)])
        if met is not None:
            ys[met:] = xs[met:]
        result.trace = (array_vertices(xs), array_vertices(ys))
    return result


def _cross_collision_once(jumps, x0, y0, budget, rng, min_index):
    """First shared vertex between two independent paths, as (m, n).

    Earliest-index tables on both paths make the answer well defined;
    indices below min_index are excluded (min_index 1 drops the sources).
    """
    atoms = jumps.atoms
    cum = atom_cdf(jumps.weights)
    seen_a = {x0: 0} if min_index == 0 else {}
    seen_b = {y0: 0} if min_index == 0 else {}
    if min_index == 0 and x0 == y0:
        return (0, 0)
    px, py = x0, y0
    draws = np.searchsorted(cum, rng.random(2 * budget), side="right")
    for step in range(1, budget + 1):
        px = tuple(p + q for p, q in zip(px, atoms[draws[2 * step - 2]]))
        if px in seen_b:
            return (step, seen_b[px])
        if px not in seen_a:
            seen_a[px] = step
        py = tuple(p + q for p, q in zip(py, atoms[draws[2 * step - 1]]))
        if py in seen_a:
            return (seen_a[py], step)
        if py not in seen_b:
            seen_b[py] = step
    return None


def shift_coupling(jumps, lattice, x, y, budget, seed):
    """Couple two chains up to an index shift, one seeded experiment.

    Success means the paths shared a vertex at indices (m, n), any pair
    including the sources; gluing from there gives X_t = Y_{t-k} for
    t >= coupling time, with shift k = m - n. The lattice argument states
    where the sources live; sources are validated against it. No path is
    recorded: the result's trace is always None.
    """
    _check_steps("budget", budget)
    _check_steps("seed", seed, least=None)
    d = jumps.dimension
    x0, y0 = _vec(x, d), _vec(y, d)
    if lattice is not None:
        for p in (x0, y0):
            if not in_lattice(lattice, p):
                raise UnknownVertex(f"source {p} not in lattice")
    rng = rng_for(seed, _ROLE_SHIFT)
    hit = _cross_collision_once(jumps, x0, y0, budget, rng, min_index=0)
    if hit is None:
        return CouplingResult(False)
    m, n = hit
    return CouplingResult(True, coupling_time=m, shift=m - n)


def path_collision_estimate(jumps, x, y, budget, trials, seed):
    """Frequency with which two independent paths share a vertex.

    Collisions count only at indices >= 1 on both paths, so the sources
    themselves are excluded. Sharing a vertex is what merges two sources
    into one component of the coalescing forest; the complement of the
    frequency estimates the distinct-component probability.
    """
    _check_steps("budget", budget)
    _check_steps("trials", trials, least=1)
    _check_steps("seed", seed, least=None)
    d = jumps.dimension
    x0, y0 = _vec(x, d), _vec(y, d)
    hits = []
    for t in range(trials):
        rng = rng_for(derive_seed(seed, t), _ROLE_CROSS)
        hits.append(_cross_collision_once(jumps, x0, y0, budget, rng,
                                          min_index=1))
    successes = [h for h in hits if h is not None]
    f = len(successes) / trials
    steps = [max(m, n) for m, n in successes]
    return CollisionEstimate(
        trials=trials,
        successes=len(successes),
        budget=budget,
        frequency=f,
        half_width=4.0 * math.sqrt(f * (1.0 - f) / trials),
        mean_steps=float(np.mean(steps)) if steps else None,
    )
