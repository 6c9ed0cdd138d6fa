"""The one kernel-power sweep against the four per-function sweep loops it
replaced, which are kept here as the oracles.

Each oracle steps its own dict of integer numerators over D^m, as
kernel_power, green_function, green_table and tv_profile each did before
they read from one shared generator. On random kernels (d = 1-3, 1-4 atoms,
rational weights) the library must equal them exactly, as Fractions, on
both the dense step and the dict step the sweep keeps for kernels whose
powers fill a shrinking share of their box. Suites are deterministic
(derandomize=True) with a bounded number of examples.
"""

import itertools
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmtforest import chains
from cmtforest.analysis import green_table
from cmtforest.chains import _vec, green_function, kernel_power, tv_profile
from cmtforest.errors import CyclicComponent
from cmtforest.lattice import JumpDistribution, check_cycle_free, uniform_jumps
from cmtforest.models import nguyen_atoms

SUITE = settings(derandomize=True, max_examples=150, deadline=None, database=None)

# largest number of steps a Green suite sweeps, to keep examples cheap
MAX_HORIZON = 12


# -- oracles: the per-function sweep loops the shared generator replaced ------------


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
    diff = _vec(target, d)
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
    vecs = {_vec(y, d) for y in targets}
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
    full = rep.holds and horizon >= oracle_horizon(jumps, _vec(target, jumps.dimension))
    assert gv.probability == full


@SUITE
@given(data=st.data(), jumps=kernels())
def test_green_function_full_series_matches_its_loop(data, jumps):
    target = targets_for(data.draw, jumps)
    if not check_cycle_free(jumps).holds:
        with pytest.raises(CyclicComponent):
            green_function(jumps, target)
        return
    assume(oracle_horizon(jumps, _vec(target, jumps.dimension)) <= MAX_HORIZON)
    gv = green_function(jumps, target)
    assert (gv.value, gv.terms) == oracle_green_function(jumps, target)
    assert gv.probability


@SUITE
@given(data=st.data(), jumps=cycle_free_kernels())
def test_green_table_matches_its_loop(data, jumps):
    targets = [targets_for(data.draw, jumps) for _ in range(data.draw(st.integers(0, 6)))]
    d = jumps.dimension
    assume(all(oracle_horizon(jumps, _vec(y, d)) <= MAX_HORIZON for y in targets))
    table = green_table(jumps, targets)
    oracle = oracle_green_table(jumps, targets)
    assert set(table) == set(targets)
    for y in targets:
        assert table[y] == oracle[_vec(y, d)]


@SUITE
@given(jumps=kernels(), n_max=st.integers(0, 6), k=st.integers(1, 3))
def test_tv_profile_matches_its_loop(jumps, n_max, k):
    assert tv_profile(jumps, n_max, k) == oracle_tv_profile(jumps, n_max, k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tv_profile_holds_at_most_k_plus_one_powers(monkeypatch, k):
    sweep = chains._power_numerators
    refs = []
    most = []

    def counted(jumps):
        for m, power, scale in sweep(jumps):
            # the powers the caller still holds while this one is stepped
            most.append(sum(r() is not None for r in refs) + 1)
            refs.append(weakref.ref(power.num))
            yield m, power, scale
            del power

    monkeypatch.setattr(chains, "_power_numerators", counted)
    jumps = uniform_jumps([(1,), (2,)])
    assert tv_profile(jumps, 20, k) == oracle_tv_profile(jumps, 20, k)
    assert max(most) <= k + 1


# -- the dense and the dict step ------------------------------------------------------

RENEWAL = uniform_jumps([(1,), (2,)])
SPREAD = uniform_jumps([(0,), (100,)])  # dense once its axis is divided by 100
SPARSE = uniform_jumps([(100, 0, 0, -1), (0, 100, 0, -1), (0, 0, 100, -1)])


def step_of(jumps):
    """'dense' or 'dict': how the sweep holds the kernel's first power."""
    _, power, _ = next(itertools.islice(chains._power_numerators(jumps), 1, None))
    return "dict" if isinstance(power, dict) else "dense"


@pytest.mark.parametrize("jumps, step", [
    (RENEWAL, "dense"),
    (uniform_jumps(nguyen_atoms(2)), "dense"),
    (uniform_jumps(nguyen_atoms(3)), "dense"),
    (uniform_jumps(nguyen_atoms(4)), "dense"),
    (SPREAD, "dense"),
    (uniform_jumps([(1,)]), "dense"),
    (SPARSE, "dict"),
    (uniform_jumps([(1, 1), (2, 2)]), "dict"),
    (uniform_jumps([(0,), (2**62,)]), "dict"),  # its box corners would pass int64
])
def test_each_kernel_takes_its_step(jumps, step):
    assert step_of(jumps) == step


def test_random_kernels_take_both_steps():
    steps = set()

    @SUITE
    @given(jumps=kernels())
    def record(jumps):
        steps.add(step_of(jumps))

    record()
    assert steps == {"dense", "dict"}


@pytest.mark.parametrize("jumps, n, targets", [
    (SPREAD, 30, [(0,), (100,), (250,), (300,), (2900,), (-100,)]),
    (SPARSE, 8, [(100, 0, 0, -1), (200, 100, 0, -3), (0, 0, 0, 0), (300, 300, 200, -8),
                 (100, 100, 100, -2)]),
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
    # a target past int64 is off every box the sweep reaches
    assert green_function(RENEWAL, 2**70, horizon=4).value == 0
    assert green_function(RENEWAL, -(2**70), horizon=4).value == 0


def test_sparse_example_needs_no_box():
    # its powers fill a shrinking share of their box; the dict step holds
    # only the 91 points of the 12th power and never reaches TooLarge
    assert len(kernel_power(SPARSE, 12).distribution) == 91
    assert len(kernel_power(SPREAD, 300).distribution) == 301


@pytest.mark.parametrize("jumps, n", [(RENEWAL, 20), (uniform_jumps(nguyen_atoms(3)), 9),
                                      (uniform_jumps([(1, 0), (0, 1), (1, 1)]), 9)])
def test_a_box_past_its_cap_hands_over_to_the_dict_step(monkeypatch, jumps, n):
    # the box outgrows the cap mid-sweep, so one sweep holds both kinds
    monkeypatch.setattr(chains, "_BOX_CAP", 20)
    kinds = [type(p) for _, p, _ in itertools.islice(chains._power_numerators(jumps), n + 3)]
    assert kinds[0] is chains._Box and kinds[-1] is dict
    assert kernel_power(jumps, n).distribution == oracle_kernel_power(jumps, n)
    for k in (1, 3):
        assert tv_profile(jumps, n, k) == oracle_tv_profile(jumps, n, k)
    targets = list(oracle_kernel_power(jumps, n)) + list(oracle_kernel_power(jumps, 2))
    table, oracle = green_table(jumps, targets), oracle_green_table(jumps, targets)
    assert all(table[y] == oracle[_vec(y, jumps.dimension)] for y in targets)


@pytest.mark.parametrize("target, horizon", [(5, 200), (5, 3), (4, 4), (-1, 50)])
def test_green_sweep_stops_at_the_witness_bound(monkeypatch, target, horizon):
    # on a cycle-free kernel every term past the witness bound is zero
    jumps = uniform_jumps([(1,), (2,)])
    bound = max(target, 0)  # each step raises x by at least 1
    sweep = chains._power_numerators
    reached = []

    def counted(jumps):
        for item in sweep(jumps):
            reached.append(item[0])
            yield item

    monkeypatch.setattr(chains, "_power_numerators", counted)
    got = green_function(jumps, target, horizon=horizon)
    assert (got.value, got.terms) == oracle_green_function(jumps, target, horizon)
    assert got.probability == (horizon >= bound)
    assert max(reached) == min(horizon, bound)
