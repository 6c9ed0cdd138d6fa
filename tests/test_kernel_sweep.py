"""The one kernel-power sweep against the four per-function sweep loops it
replaced, which are kept here as the oracles.

Each oracle steps its own dict of integer numerators over D^m, as
kernel_power, green_function, green_table and tv_profile each did before
they read from one shared generator. On random kernels (d = 1-3, 1-4 atoms,
rational weights) the library must equal them exactly, as Fractions; fixed
cases add sparse kernels, coordinates past int64, sweeps keyed in Python
ints and a sweep that must stop at its last power. Suites are deterministic
(derandomize=True) with a bounded number of examples.
"""

import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmtforest import chains
from cmtforest.analysis import green_table
from cmtforest.chains import green_function, kernel_power, tv_consecutive, tv_profile
from cmtforest.errors import BadDimension, CyclicComponent, TooLarge
from cmtforest.lattice import JumpDistribution, check_cycle_free, uniform_jumps
from cmtforest.models import nguyen_atoms

SUITE = settings(derandomize=True, max_examples=150, deadline=None, database=None)

# largest number of steps a Green suite sweeps, to keep examples cheap
MAX_HORIZON = 12


# -- oracles: the per-function sweep loops the shared generator replaced ------------


def oracle_vec(v, d):
    """v as a tuple of d ints, read through int(); a bare int is a point of Z^1.
    The chains' point reader before errors._point, kept as its oracle."""
    vec = tuple(int(c) for c in v) if isinstance(v, (tuple, list, np.ndarray)) else (int(v),)
    if len(vec) != d:
        raise BadDimension(f"{v!r} has {len(vec)} coordinates, not {d}")
    return vec


def oracle_convolve(dist, moves):
    out = {}
    for p, c in dist.items():
        for a, na in moves:
            q = tuple(x + y for x, y in zip(p, a))
            out[q] = out.get(q, 0) + c * na
    return out


def oracle_moves(jumps):
    den = math.lcm(*(w.denominator for w in jumps.weights))
    return den, [(a, int(w * den)) for a, w in zip(jumps.atoms, jumps.weights)]


def oracle_kernel_power(jumps, n):
    d = jumps.dimension
    den, moves = oracle_moves(jumps)
    dist = {(0,) * d: 1}
    for _ in range(n):
        dist = oracle_convolve(dist, moves)
    total = den**n
    return {(p[0] if d == 1 else p): Fraction(c, total) for p, c in dist.items()}


def oracle_horizon(jumps, vec):
    u = check_cycle_free(jumps).witness
    delta = min(sum(Fraction(c) * x for c, x in zip(a, u)) for a in jumps.atoms)
    t = sum(Fraction(c) * x for c, x in zip(vec, u))
    return max(0, math.floor(t / delta)) if t >= 0 else 0


def oracle_green_function(jumps, target, horizon=None):
    """(value, terms) of the partial Green series."""
    d = jumps.dimension
    diff = oracle_vec(target, d)
    if horizon is None:
        horizon = oracle_horizon(jumps, diff)
    den, moves = oracle_moves(jumps)
    zero = (0,) * d
    dist = {zero: 1}
    acc = Fraction(int(diff == zero))
    for m in range(1, horizon + 1):
        dist = oracle_convolve(dist, moves)
        c = dist.get(diff)
        if c:
            acc += Fraction(c, den**m)
    return acc, horizon + 1


def oracle_green_table(jumps, targets):
    """Green values keyed by target vector."""
    d = jumps.dimension
    vecs = {oracle_vec(y, d) for y in targets}
    horizon = max((oracle_horizon(jumps, v) for v in vecs), default=0)
    zero = (0,) * d
    acc = {vec: Fraction(int(vec == zero)) for vec in vecs}
    den, moves = oracle_moves(jumps)
    dist = {zero: 1}
    for m in range(1, horizon + 1):
        dist = oracle_convolve(dist, moves)
        for vec in vecs:
            c = dist.get(vec)
            if c:
                acc[vec] += Fraction(c, den**m)
    return acc


def oracle_tv_profile(jumps, n_max, k):
    d = jumps.dimension
    den, moves = oracle_moves(jumps)
    powers = [{(0,) * d: 1}]
    for _ in range(n_max + k):
        powers.append(oracle_convolve(powers[-1], moves))
    out = []
    for n in range(1, n_max + 1):
        a, b = powers[n], powers[n + k]
        scale = den**k
        num = sum(abs(a.get(p, 0) * scale - b.get(p, 0)) for p in set(a) | set(b))
        out.append(Fraction(num, 2 * den ** (n + k)))
    return out


# -- strategies ---------------------------------------------------------------------


@st.composite
def kernels(draw):
    d = draw(st.integers(1, 3))
    atoms = draw(
        st.lists(
            st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=4, unique=True
        )
    )
    raw = draw(st.lists(st.integers(1, 7), min_size=len(atoms), max_size=len(atoms)))
    return JumpDistribution(tuple(atoms), tuple(Fraction(w, sum(raw)) for w in raw))


def targets_for(draw, jumps):
    d = jumps.dimension
    vec = draw(st.tuples(*[st.integers(-4, 4)] * d))
    # a point of Z^1 may also be spelled as a bare int
    return vec[0] if d == 1 and draw(st.booleans()) else vec


@st.composite
def cycle_free_kernels(draw):
    jumps = draw(kernels())
    assume(check_cycle_free(jumps).holds)
    return jumps


# -- gates ----------------------------------------------------------------------------


@SUITE
@given(jumps=kernels(), n=st.integers(0, 6))
def test_kernel_power_matches_its_loop(jumps, n):
    kp = kernel_power(jumps, n)
    assert kp.n == n
    assert kp.distribution == oracle_kernel_power(jumps, n)


@SUITE
@given(data=st.data(), jumps=kernels(), horizon=st.integers(0, 6))
def test_green_function_with_horizon_matches_its_loop(data, jumps, horizon):
    # cyclic kernels included: the explicit horizon is what lets them sum
    target = targets_for(data.draw, jumps)
    gv = green_function(jumps, target, horizon=horizon)
    assert (gv.value, gv.terms) == oracle_green_function(jumps, target, horizon)
    rep = check_cycle_free(jumps)
    full = rep.holds and horizon >= oracle_horizon(jumps, oracle_vec(target, jumps.dimension))
    assert gv.probability == full


@SUITE
@given(data=st.data(), jumps=kernels())
def test_green_function_full_series_matches_its_loop(data, jumps):
    target = targets_for(data.draw, jumps)
    if not check_cycle_free(jumps).holds:
        with pytest.raises(CyclicComponent):
            green_function(jumps, target)
        return
    assume(oracle_horizon(jumps, oracle_vec(target, jumps.dimension)) <= MAX_HORIZON)
    gv = green_function(jumps, target)
    assert (gv.value, gv.terms) == oracle_green_function(jumps, target)
    assert gv.probability


@SUITE
@given(data=st.data(), jumps=cycle_free_kernels())
def test_green_table_matches_its_loop(data, jumps):
    targets = [targets_for(data.draw, jumps) for _ in range(data.draw(st.integers(0, 6)))]
    d = jumps.dimension
    assume(all(oracle_horizon(jumps, oracle_vec(y, d)) <= MAX_HORIZON for y in targets))
    table = green_table(jumps, targets)
    oracle = oracle_green_table(jumps, targets)
    assert set(table) == set(targets)
    for y in targets:
        assert table[y] == oracle[oracle_vec(y, d)]


@SUITE
@given(jumps=kernels(), n_max=st.integers(0, 6), k=st.integers(1, 3))
def test_tv_profile_matches_its_loop(jumps, n_max, k):
    assert tv_profile(jumps, n_max, k) == oracle_tv_profile(jumps, n_max, k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tv_profile_holds_at_most_k_plus_one_powers(monkeypatch, k):
    sweep = chains._power_numerators
    refs = []
    most = []

    def counted(jumps, last):
        for m, power, scale in sweep(jumps, last):
            # the powers the caller still holds while this one is stepped
            most.append(sum(r() is not None for r in refs) + 1)
            refs.append(weakref.ref(power.num))
            yield m, power, scale
            del power

    monkeypatch.setattr(chains, "_power_numerators", counted)
    jumps = uniform_jumps([(1,), (2,)])
    assert tv_profile(jumps, 20, k) == oracle_tv_profile(jumps, 20, k)
    assert max(most) <= k + 1


# -- sparse, far and huge kernels ----------------------------------------------------

RENEWAL = uniform_jumps([(1,), (2,)])
SPREAD = uniform_jumps([(0,), (100,)])  # one cell per point once its axis is divided by 100
SPARSE = uniform_jumps([(100, 0, 0, -1), (0, 100, 0, -1), (0, 0, 100, -1)])
THIN = uniform_jumps([(0, 0), (100, 1), (1, 100)])  # fills ~1/20,000 of its box
HUGE = uniform_jumps([(0,), (3,), (2**62,)])


@pytest.mark.parametrize("jumps, dtype", [
    (RENEWAL, "int64"),
    (uniform_jumps(nguyen_atoms(2)), "int64"),
    (uniform_jumps(nguyen_atoms(3)), "int64"),
    (uniform_jumps(nguyen_atoms(4)), "int64"),
    (SPREAD, "int64"),
    (uniform_jumps([(1,)]), "int64"),
    (SPARSE, "int64"),
    (uniform_jumps([(1, 1), (2, 2)]), "int64"),
    (uniform_jumps([(0,), (2**62,)]), "object"),  # its first step reaches 2**62
])
def test_each_kernel_keys_its_first_step(jumps, dtype):
    _, power, _ = list(chains._power_numerators(jumps, 1))[1]
    assert power.keys.dtype == dtype
    assert (power.keys[1:] > power.keys[:-1]).all()


@pytest.mark.parametrize("jumps, n, targets", [
    (SPREAD, 30, [(0,), (100,), (250,), (300,), (2900,), (-100,)]),
    (SPARSE, 8, [(100, 0, 0, -1), (200, 100, 0, -3), (0, 0, 0, 0), (300, 300, 200, -8),
                 (100, 100, 100, -2)]),
    (THIN, 8, [(0, 0), (100, 1), (101, 101), (300, 3), (203, 302), (5, 5), (-1, 0)]),
    (HUGE, 8, [(0,), (3,), (2**62,), (2**62 + 3,), (2**63 + 6,), (2**64,), (-3,), (2**70,)]),
])
def test_sparse_kernels_match_their_loops(jumps, n, targets):
    assert kernel_power(jumps, n).distribution == oracle_kernel_power(jumps, n)
    assert tv_profile(jumps, n, 2) == oracle_tv_profile(jumps, n, 2)
    for y in targets:
        got = green_function(jumps, y, horizon=n)
        assert (got.value, got.terms) == oracle_green_function(jumps, y, n)
    if check_cycle_free(jumps).holds:
        assert green_table(jumps, targets) == oracle_green_table(jumps, targets)


def test_huge_coordinates_stay_exact():
    huge = uniform_jumps([(0,), (2**62,)])
    assert kernel_power(huge, 3).distribution == oracle_kernel_power(huge, 3)
    # a spacing past int64 on one axis, a small one on the other
    wide = uniform_jumps([(5, 0), (0, 2**63 + 1)])
    assert kernel_power(wide, 4).distribution == oracle_kernel_power(wide, 4)
    assert tv_profile(wide, 4, 2) == oracle_tv_profile(wide, 4, 2)
    for y in [(5, 2**63 + 1), (10, 0), (0, 2**63), (-5, 0)]:
        got = green_function(wide, y, horizon=4)
        assert (got.value, got.terms) == oracle_green_function(wide, y, 4)
    # a target past int64 is off every power the sweep reaches
    assert green_function(RENEWAL, 2**70, horizon=4).value == 0
    assert green_function(RENEWAL, -(2**70), horizon=4).value == 0


def test_sparse_example_needs_no_box():
    # the sweep holds only the support: the 91 points of the 12th power,
    # never a box of cells, and never reaches TooLarge
    assert len(kernel_power(SPARSE, 12).distribution) == 91
    assert len(kernel_power(THIN, 12).distribution) == 91
    assert len(kernel_power(SPREAD, 300).distribution) == 301


@pytest.mark.parametrize("jumps, n, far", [
    (RENEWAL, 20, 20),
    (uniform_jumps(nguyen_atoms(3)), 9, 200),
    (uniform_jumps([(1, 0), (0, 1), (1, 1)]), 9, 50),
    (THIN, 8, 50_000),
])
def test_a_sweep_past_far_keys_python_ints(monkeypatch, jumps, n, far):
    # under a lowered _FAR every power of the long sweep keys Python ints, and
    # every power of a short sweep of the same kernel keys int64
    monkeypatch.setattr(chains, "_FAR", far)
    assert [p.keys.dtype for _, p, _ in chains._power_numerators(jumps, n)] == [object] * (n + 1)
    assert [p.keys.dtype for _, p, _ in chains._power_numerators(jumps, 1)] == [np.int64] * 2
    assert kernel_power(jumps, n).distribution == oracle_kernel_power(jumps, n)
    for k in (1, 3):
        assert tv_profile(jumps, n, k) == oracle_tv_profile(jumps, n, k)
    targets = list(oracle_kernel_power(jumps, n)) + list(oracle_kernel_power(jumps, 2))
    for y in targets[::7]:
        got = green_function(jumps, y, horizon=n)
        assert (got.value, got.terms) == oracle_green_function(jumps, y, n)
    if check_cycle_free(jumps).holds:
        table, oracle = green_table(jumps, targets), oracle_green_table(jumps, targets)
        assert all(table[y] == oracle[oracle_vec(y, jumps.dimension)] for y in targets)


@pytest.mark.parametrize("jumps, n, k", [
    (RENEWAL, 12, 1),
    (uniform_jumps(nguyen_atoms(2)), 6, 2),
    (THIN, 5, 3),
])
def test_a_sweep_never_steps_past_its_last_power(monkeypatch, jumps, n, k):
    # power n fits under the cap and power n + 1 does not, so a sweep that stepped
    # once past the last power it yields would raise TooLarge for a power no caller asked for
    size = len(oracle_kernel_power(jumps, n))
    assert len(oracle_kernel_power(jumps, n + 1)) > size
    monkeypatch.setattr(chains, "_SUPPORT_CAP", size)
    assert kernel_power(jumps, n).distribution == oracle_kernel_power(jumps, n)
    assert tv_profile(jumps, n - k, k) == oracle_tv_profile(jumps, n - k, k)
    far = max(oracle_kernel_power(jumps, n))  # a point of power n: the sweep reaches it
    got = green_function(jumps, far, horizon=n)
    assert (got.value, got.terms) == oracle_green_function(jumps, far, n)
    with pytest.raises(TooLarge, match=f"exceeded {size} points"):
        kernel_power(jumps, n + 1)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: green_table(RENEWAL, [2**70]), id="table"),
    pytest.param(lambda: green_table(RENEWAL, [3, (2**70,)]), id="table-of-two"),
    pytest.param(lambda: green_function(RENEWAL, 2**70), id="function"),
    pytest.param(lambda: green_function(RENEWAL, 2**70, horizon=2**66), id="function-horizon"),
])
def test_a_target_past_sys_maxsize_steps_is_named(call):
    # no sweep gets 2**70 steps out; the error names the target
    with pytest.raises(TooLarge, match=str(2**70)):
        call()


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: kernel_power(RENEWAL, 2**70), "n", id="power"),
    pytest.param(lambda: tv_profile(RENEWAL, 2**70), "n_max", id="profile"),
    pytest.param(lambda: tv_profile(RENEWAL, 3, 2**70), "k", id="profile-k"),
    pytest.param(lambda: tv_consecutive(RENEWAL, 2**70), "n_max", id="consecutive"),
    pytest.param(lambda: green_function(uniform_jumps([(0,), (1,)]), 3, horizon=2**70),
                 "horizon", id="function-horizon"),
])
def test_a_step_count_past_sys_maxsize_is_named(call, name):
    # no sweep gets sys.maxsize steps out; the error names the argument instead
    with pytest.raises(TooLarge, match=name):
        call()


@pytest.mark.parametrize("target, horizon", [(5, 200), (5, 3), (4, 4), (-1, 50)])
def test_green_sweep_stops_at_the_witness_bound(monkeypatch, target, horizon):
    # on a cycle-free kernel every term past the witness bound is zero
    jumps = uniform_jumps([(1,), (2,)])
    bound = max(target, 0)  # each step raises x by at least 1
    sweep = chains._power_numerators
    reached = []

    def counted(jumps, last):
        for item in sweep(jumps, last):
            reached.append(item[0])
            yield item

    monkeypatch.setattr(chains, "_power_numerators", counted)
    got = green_function(jumps, target, horizon=horizon)
    assert (got.value, got.terms) == oracle_green_function(jumps, target, horizon)
    assert got.probability == (horizon >= bound)
    assert max(reached) == min(horizon, bound)
