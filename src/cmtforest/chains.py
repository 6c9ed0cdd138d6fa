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
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadDimension, ConfigError, CyclicComponent, TooLarge, UnknownVertex
from .forest import array_vertices, coords, vertex
from .lattice import atom_cdf, check_cycle_free, in_lattice
from .seeds import derive_seed, rng_for

_ROLE_MEET = 0xC1
_ROLE_SHIFT = 0xC2
_ROLE_CROSS = 0xC3

_SUPPORT_CAP = 10**8
_BOX_CAP = 2**22  # cells of one dense power
_DENSE_COORD = 2**20  # largest atom coordinate stepped on a box
_FAR = 2**62  # past every box a sweep can reach, and inside int64


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


def _check_steps(name, value, least=0):
    """An integer count >= least (any integer when least is None); bools
    are not counts."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or least is not None and value < least):
        floor = "" if least is None else f" >= {least}"
        raise ConfigError(f"{name} must be an integer{floor}, got {value!r}")


@dataclass
class _Box:
    """A kernel power's numerators on its bounding box: cell t holds the
    numerator of the increment low + spacing * t."""

    num: np.ndarray  # object dtype: exact Python ints
    low: np.ndarray
    spacing: np.ndarray


def _rank(rows):
    """Exact rank of an integer matrix given by its rows."""
    rows, rank = [[Fraction(c) for c in r] for r in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((j for j in range(rank, len(rows)) if rows[j][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for j in range(rank + 1, len(rows)):
            f = rows[j][col] / rows[rank][col]
            rows[j] = [x - f * y for x, y in zip(rows[j], rows[rank])]
        rank += 1
    return rank


def _dense_grid(jumps):
    """How the powers sit on a box, or None when they fill a shrinking
    share of it and are stepped as dicts.

    With each axis divided by the gcd of the atoms' differences on it (its
    spacing), every step moves the box's low corner by the atoms' least
    coordinates and each atom to a fixed cell offset. The m-th power's box
    has about m**v cells, v the number of axes the atoms vary on, and its
    support about m**r points, r the rank of the atoms' differences; the
    support's share of the box falls like m**(r - v), so the box is used
    only when v == r. Atoms with a coordinate past _DENSE_COORD stay on
    dicts, so that every box corner and target offset fits in int64.
    Returns (spacing, lift, offsets, growth).
    """
    atoms = jumps.atoms
    if any(abs(c) > _DENSE_COORD for a in atoms for c in a):
        return None
    lift = tuple(map(min, zip(*atoms)))
    rel = [tuple(x - y for x, y in zip(a, lift)) for a in atoms]
    gcds = [math.gcd(*axis) for axis in zip(*rel)]
    diffs = [tuple(x - y for x, y in zip(a, atoms[0])) for a in atoms]
    if sum(g > 0 for g in gcds) != _rank(diffs):
        return None
    spacing = [g or 1 for g in gcds]
    offsets = [tuple(x // s for x, s in zip(r, spacing)) for r in rel]
    return (np.array(spacing, dtype=np.int64), np.array(lift, dtype=np.int64),
            offsets, tuple(map(max, zip(*offsets))))


def _step_dict(dist, moves):
    out = {}
    for p, c in dist.items():
        for a, na in moves:
            q = tuple(x + y for x, y in zip(p, a))
            out[q] = out.get(q, 0) + c * na
    if len(out) > _SUPPORT_CAP:
        raise TooLarge(f"kernel support exceeded {_SUPPORT_CAP} points")
    return out


def _step_box(box, grid, moves):
    """The next power: one slice-add per atom. A box that would outgrow
    _BOX_CAP cells hands its power to the dict step, so the box never
    raises TooLarge where the dict step would not."""
    spacing, lift, offsets, growth = grid
    shape = tuple(n + g for n, g in zip(box.num.shape, growth))
    if math.prod(shape) > _BOX_CAP:
        return _step_dict(_support(box), moves)
    out = np.zeros(shape, dtype=object)
    for off, (_, na) in zip(offsets, moves):
        out[tuple(slice(o, o + n) for o, n in zip(off, box.num.shape))] += (
            box.num if na == 1 else box.num * na)
    return _Box(out, box.low + lift, spacing)


def _support(power):
    """A power's nonzero numerators keyed by increment tuple."""
    if isinstance(power, dict):
        return power
    cells = np.nonzero(power.num)
    points = power.low + power.spacing * np.stack(cells, axis=1)
    return dict(zip(map(tuple, points.tolist()), power.num[cells].tolist()))


def _power_numerators(jumps):
    """Yield (m, power, den**m) for m = 0, 1, 2, ...: the m-step law as
    integer numerators over den**m, den the lcm of the weight denominators.

    A power is a _Box where _dense_grid places the kernel's powers on one,
    and otherwise a dict from increment tuple to nonzero numerator. Each
    power is stepped from the last only when the next item is asked for."""
    den = math.lcm(*(w.denominator for w in jumps.weights))
    moves = [(a, int(w * den)) for a, w in zip(jumps.atoms, jumps.weights)]
    grid = _dense_grid(jumps)
    d = jumps.dimension
    if grid is None:
        power = {(0,) * d: 1}
    else:
        power = _Box(np.ones((1,) * d, dtype=object), np.zeros(d, dtype=np.int64), grid[0])
    for m in itertools.count():
        yield m, power, den**m
        if isinstance(power, dict):
            power = _step_dict(power, moves)
        else:
            power = _step_box(power, grid, moves)


def kernel_power(jumps, n):
    """Exact law of the n-step increment X_n - X_0."""
    _check_steps("n", n)
    _, power, total = next(itertools.islice(_power_numerators(jumps), n, None))
    probs = {vertex(p): Fraction(c, total) for p, c in _support(power).items()}
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


def _last_visit(jumps, witness, vecs):
    """Largest m with K^m(0, y) > 0 possible for some y in vecs: each step
    raises u.x by at least delta = min u.a > 0 for the cycle-free witness u."""
    delta = min(sum(Fraction(c) * x for c, x in zip(a, witness)) for a in jumps.atoms)
    horizon = 0
    for vec in vecs:
        t = sum(Fraction(c) * x for c, x in zip(vec, witness))
        if t >= 0:
            horizon = max(horizon, math.floor(t / delta))
    return horizon


def _hits(power, keys, points):
    """(i, numerator) for each keys[i] at which the power is nonzero;
    points holds the keys as an int64 array."""
    if isinstance(power, dict):
        return [(i, power[v]) for i, v in enumerate(keys) if v in power]
    cell, rest = np.divmod(points - power.low, power.spacing)
    on = np.flatnonzero(((rest == 0) & (cell >= 0) & (cell < power.num.shape)).all(axis=1))
    nums = power.num[tuple(cell[on].T)].tolist()
    return [(i, c) for i, c in zip(on.tolist(), nums) if c]


def _green_sums(jumps, vecs, horizon):
    """Sum of K^m(0, y) over 0 <= m <= horizon for each vector y, in one sweep."""
    keys = list(dict.fromkeys(vecs))
    # a coordinate past _FAR is off every box, and clamping keeps it so
    points = np.array([[min(max(c, -_FAR), _FAR) for c in v] for v in keys],
                      dtype=np.int64).reshape(len(keys), jumps.dimension)
    acc = [Fraction(0)] * len(keys)
    for _, power, scale in itertools.islice(_power_numerators(jumps), horizon + 1):
        for i, c in _hits(power, keys, points):
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
    bound = _last_visit(jumps, rep.witness, [diff]) if rep.holds else None
    if horizon is None:
        horizon = bound
    # every term past the witness bound is zero, so the sweep stops there
    value = _green_sums(jumps, [diff], horizon if bound is None else min(horizon, bound))[diff]
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
    if isinstance(a, _Box) and isinstance(b, _Box):
        shift, rest = np.divmod(a.low - b.low, b.spacing)  # a's cell 0 among b's
        lo = np.maximum(shift, 0)
        hi = np.minimum(shift + a.num.shape, b.num.shape)
        if rest.any() or (lo >= hi).any():
            return 0
        in_a = tuple(slice(x - s, y - s) for x, y, s in zip(lo, hi, shift))
        in_b = tuple(slice(x, y) for x, y in zip(lo, hi))
        return np.minimum(a.num[in_a] * ratio, b.num[in_b]).sum()
    a, b = _support(a), _support(b)
    return sum(min(ratio * c, b[p]) for p, c in a.items() if p in b)


def tv_profile(jumps, n_max, k=1):
    """Exact TV distances between kernel powers k steps apart.

    Entry n-1 is TV(K^n(0,.), K^{n+k}(0,.)) for n = 1..n_max, on the
    half-sum-of-absolute-differences normalization, so values lie in [0,1].
    Both laws have mass one, so that half-sum is one less their overlap.
    Only the latest k + 1 powers are held.
    """
    _check_steps("n_max", n_max)
    _check_steps("k", k)
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
    if record_trace:
        return _traced_meeting(jumps, x0, y0, budget, rng_for(seed, _ROLE_MEET))
    if x0 == y0:
        return CouplingResult(True, coupling_time=0, shift=0)

    vecs, cum = _difference_kernel(jumps)
    rng = rng_for(seed, _ROLE_MEET)
    pos = np.array(tuple(a - b for a, b in zip(x0, y0)), dtype=np.int64)
    # most pairs meet within a few steps: draw 64 steps first, then double
    # up to 4096 per chunk (the same stream as one draw per step)
    step = 0
    chunk = 64
    while step < budget:
        b = min(chunk, budget - step)
        idx = np.searchsorted(cum, rng.random(b), side="right")
        traj = pos + np.cumsum(vecs[idx], axis=0)
        zero = (traj == 0).all(axis=1)
        if zero.any():
            first = int(zero.argmax())
            return CouplingResult(True, coupling_time=step + first + 1, shift=0)
        pos = traj[-1]
        step += b
        chunk = min(2 * chunk, 4096)
    return CouplingResult(False)


def _traced_meeting(jumps, x0, y0, budget, rng):
    """The untraced experiment, read from one draw of its whole stream, with
    its paths: X steps by a throughout, Y by b until the chains meet and
    with X after."""
    vecs, cum = _difference_kernel(jumps)
    a, b = _pair_steps(jumps, vecs, cum, rng.random(budget))
    xs = np.vstack([x0, x0 + np.cumsum(a, axis=0)])
    ys = np.vstack([y0, y0 + np.cumsum(b, axis=0)])
    met = np.flatnonzero((xs == ys).all(axis=1))
    if not len(met):
        return CouplingResult(False, trace=(array_vertices(xs), array_vertices(ys)))
    t = int(met[0])
    ys[t:] = xs[t:]
    return CouplingResult(True, coupling_time=t, shift=0,
                          trace=(array_vertices(xs), array_vertices(ys)))


def _cross_collision_once(jumps, x0, y0, budget, rng, min_index):
    """First shared vertex between two independent paths, as (m, n).

    Earliest-index tables on both paths make the answer well defined;
    indices below min_index are excluded (min_index 1 drops the sources).
    """
    d = jumps.dimension
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
