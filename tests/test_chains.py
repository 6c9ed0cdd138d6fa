"""Kernel powers, Green values, TV profiles, couplings.

The renewal oracle used throughout is the visit recursion
u_m = sum_k mu(k) u_{m-k} with u_0 = 1, computed here independently of the
library's convolution code.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cmtforest import chains
from cmtforest.analysis import connectivity_decay_probe, count_components_probe, one_endedness_probe
from cmtforest.chains import (
    green_function,
    kernel_power,
    kernel_power_csv,
    meet_and_stick_coupling,
    path_collision_estimate,
    shift_coupling,
    tv_consecutive,
    tv_profile,
)
from cmtforest.errors import ConfigError, CyclicComponent, UnknownVertex
from cmtforest.forest import coords, vertex
from cmtforest.lattice import JumpDistribution, even_sublattice, integer_lattice, uniform_jumps
from cmtforest.seeds import derive_seed, rng_for
from test_kernel_sweep import oracle_vec


def renewal_jumps():
    return uniform_jumps([(1,), (2,)])


def nguyen_jumps():
    return uniform_jumps([(1, -1), (-1, -1)])


def visit_probability_oracle(weights, m_max):
    """u_m = sum_k mu(k) u_{m-k}, u_0 = 1; exact Fractions."""
    u = [Fraction(1)] + [Fraction(0)] * m_max
    for m in range(1, m_max + 1):
        u[m] = sum(w * u[m - k] for k, w in weights.items() if k <= m)
    return u


# -- kernel powers ---------------------------------------------------------------


def test_kernel_power_zero_steps():
    kp = kernel_power(renewal_jumps(), 0)
    assert kp.distribution == {0: Fraction(1)}


def test_kernel_power_renewal_two_and_three_steps():
    assert kernel_power(renewal_jumps(), 2).distribution == {
        2: Fraction(1, 4),
        3: Fraction(1, 2),
        4: Fraction(1, 4),
    }
    assert kernel_power(renewal_jumps(), 3).distribution == {
        3: Fraction(1, 8),
        4: Fraction(3, 8),
        5: Fraction(3, 8),
        6: Fraction(1, 8),
    }


def test_kernel_power_two_jump_model():
    kp = kernel_power(nguyen_jumps(), 2)
    assert kp.distribution == {
        (-2, -2): Fraction(1, 4),
        (0, -2): Fraction(1, 2),
        (2, -2): Fraction(1, 4),
    }


def test_kernel_power_is_binomial_on_two_jump_model():
    n = 7
    kp = kernel_power(nguyen_jumps(), n)
    for (x, t), p in kp.distribution.items():
        assert t == -n
        assert p == Fraction(math.comb(n, (n + x) // 2), 2**n)


def test_kernel_power_mass_is_exactly_one():
    jd = uniform_jumps([(1, 0), (0, 1), (-1, -1)])
    assert sum(kernel_power(jd, 6).distribution.values()) == 1


def test_kernel_power_additive_in_steps():
    jd = uniform_jumps([(1, 0), (0, 1), (-1, -1)])
    a = kernel_power(jd, 2).distribution
    b = kernel_power(jd, 3).distribution
    conv = {}
    for p, wp in a.items():
        for q, wq in b.items():
            r = (p[0] + q[0], p[1] + q[1])
            conv[r] = conv.get(r, Fraction(0)) + wp * wq
    assert conv == kernel_power(jd, 5).distribution


def test_kernel_power_csv_frozen():
    kp = kernel_power(renewal_jumps(), 2)
    assert kernel_power_csv(kp) == (
        "x0,probability\n2,1/4\n3,1/2\n4,1/4\n"
    )


def test_kernel_power_csv_sorted_lex():
    kp = kernel_power(nguyen_jumps(), 3)
    lines = kernel_power_csv(kp).splitlines()[1:]
    keys = [tuple(int(t) for t in ln.split(",")[:2]) for ln in lines]
    assert keys == sorted(keys)


# -- Green values ----------------------------------------------------------------


def test_green_matches_visit_recursion():
    jd = renewal_jumps()
    u = visit_probability_oracle({1: Fraction(1, 2), 2: Fraction(1, 2)}, 30)
    for m in range(31):
        gv = green_function(jd, m)
        assert gv.value == u[m], m
        assert gv.probability


def test_green_frozen_values():
    jd = renewal_jumps()
    assert green_function(jd, 1).value == Fraction(1, 2)
    assert green_function(jd, 2).value == Fraction(3, 4)
    assert green_function(jd, 0).value == 1


def test_green_deterministic_kernel_hits_everything():
    assert green_function(uniform_jumps([(1,)]), 3).value == 1


def test_green_limit_is_reciprocal_mean():
    gv = green_function(renewal_jumps(), 120)
    assert abs(gv.value - Fraction(2, 3)) < Fraction(1, 10**6)


def test_green_unreachable_target():
    assert green_function(renewal_jumps(), -3).value == 0


def test_green_weighted_oracle():
    jd = JumpDistribution(((1,), (3,)), (Fraction(1, 4), Fraction(3, 4)))
    u = visit_probability_oracle({1: Fraction(1, 4), 3: Fraction(3, 4)}, 20)
    for m in (1, 2, 3, 7, 20):
        assert green_function(jd, m).value == u[m]


def test_green_monotone_in_horizon_and_bounded():
    jd = renewal_jumps()
    vals = [green_function(jd, 10, horizon=h).value for h in range(12)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 1


def test_green_partial_sum_is_not_a_probability():
    jd = renewal_jumps()
    short = green_function(jd, 10, horizon=2)
    assert short.value == 0
    assert not short.probability
    full = green_function(jd, 10, horizon=10)
    assert full.value == Fraction(683, 1024)
    assert full.probability


def test_green_rejects_negative_horizon():
    with pytest.raises(ConfigError, match="horizon"):
        green_function(renewal_jumps(), 10, horizon=-3)


def test_green_needs_horizon_without_half_space():
    jd = uniform_jumps([(-1,), (1,)])
    with pytest.raises(CyclicComponent):
        green_function(jd, 0)
    gv = green_function(jd, 0, horizon=2)
    assert gv.value == Fraction(3, 2)  # 1 + 0 + 1/2
    assert not gv.probability


# -- total variation --------------------------------------------------------------


def test_tv_frozen_first_step():
    assert tv_consecutive(renewal_jumps(), 1) == Fraction(3, 4)


def test_tv_matches_direct_powers():
    jd = renewal_jumps()
    for n, k in [(1, 1), (3, 1), (2, 2), (5, 3)]:
        a = kernel_power(jd, n).distribution
        b = kernel_power(jd, n + k).distribution
        direct = sum(
            abs(a.get(x, Fraction(0)) - b.get(x, Fraction(0)))
            for x in set(a) | set(b)
        ) / 2
        assert tv_consecutive(jd, n, k) == direct


def test_step_counts_raise_named_errors():
    jd = renewal_jumps()
    with pytest.raises(ConfigError, match="n must"):
        kernel_power(jd, -1)
    with pytest.raises(ConfigError, match="k must"):
        tv_profile(jd, 3, k=-1)
    with pytest.raises(ConfigError, match="n_max"):
        tv_profile(jd, -1)
    with pytest.raises(ConfigError, match="n_max"):
        tv_consecutive(jd, 0)
    assert tv_profile(jd, 3, k=0) == [0, 0, 0]
    assert tv_profile(jd, 0) == []


J = uniform_jumps([(1,), (2,)])


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: meet_and_stick_coupling(J, 0, 3, -1, 1), "budget", id="meet-negative"),
    pytest.param(lambda: meet_and_stick_coupling(J, 0, 3, -1, 1, record_trace=True), "budget",
                 id="meet-traced-negative"),
    pytest.param(lambda: meet_and_stick_coupling(J, 0, 3, 1.5, 1), "budget", id="meet-float"),
    pytest.param(lambda: meet_and_stick_coupling(J, 0, 3, 50, 1.5), "seed", id="meet-seed"),
    pytest.param(lambda: meet_and_stick_coupling(J, 0, 0, 50, True), "seed", id="meet-seed-bool"),
    pytest.param(lambda: shift_coupling(J, None, 0, 3, -1, 1), "budget", id="shift-negative"),
    pytest.param(lambda: shift_coupling(J, None, 0, 3, 1.5, 1), "budget", id="shift-float"),
    pytest.param(lambda: shift_coupling(J, None, 0, 3, 50, 1.5), "seed", id="shift-seed"),
    pytest.param(lambda: path_collision_estimate(J, 0, 3, -1, 5, 1), "budget",
                 id="collision-negative"),
    pytest.param(lambda: path_collision_estimate(J, 0, 3, 50, True, 1), "trials",
                 id="collision-trials-bool"),
    pytest.param(lambda: path_collision_estimate(J, 0, 3, 50, 5, 1.5), "seed",
                 id="collision-seed"),
    pytest.param(lambda: one_endedness_probe(J, [-1], 5, 1), r"n_list\[0\]", id="ends-negative"),
    pytest.param(lambda: one_endedness_probe(J, [3, 2.5], 5, 1), r"n_list\[1\]", id="ends-float"),
    pytest.param(lambda: one_endedness_probe(J, [3], True, 1), "trials", id="ends-trials-bool"),
    pytest.param(lambda: one_endedness_probe(J, [3], 5, 1.5), "seed", id="ends-seed"),
    pytest.param(lambda: count_components_probe(J, 2, -1, 5, 1), "budget", id="count-negative"),
    pytest.param(lambda: count_components_probe(J, 2, 50, 5, 1.5), "seed", id="count-seed"),
    pytest.param(lambda: connectivity_decay_probe(J, 0, [1], 5, -1, 1), "budget",
                 id="decay-negative"),
    pytest.param(lambda: connectivity_decay_probe(J, 0, [1], 5, 50, 1.5), "seed",
                 id="decay-seed"),
    pytest.param(lambda: tv_profile(J, True), "n_max", id="tv-bool"),
    pytest.param(lambda: tv_profile(J, 3, k=True), "k", id="tv-k-bool"),
    pytest.param(lambda: kernel_power(J, True), "n", id="power-bool"),
    pytest.param(lambda: green_function(J, 3, horizon=False), "horizon", id="green-bool"),
])
def test_chain_arguments_raise_named_errors(call, name):
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        call()


def test_chain_arguments_keep_integer_seeds_and_zero_budgets():
    # any integer seed, negative or numpy, and a zero budget stay accepted
    assert meet_and_stick_coupling(J, 0, 3, 0, -7) == meet_and_stick_coupling(J, 0, 3, 0, -7)
    assert not meet_and_stick_coupling(J, 0, 3, 0, np.int64(5)).success
    assert not shift_coupling(J, None, 0, 3, 0, -1).success
    assert path_collision_estimate(J, 0, 3, 0, 2, -1).successes == 0
    assert one_endedness_probe(J, [0, 2], 3, np.uint64(9)).values[0] == 1.0


def test_tv_profile_nonincreasing_for_mixing_kernel():
    prof = tv_profile(renewal_jumps(), 40)
    assert all(a >= b for a, b in zip(prof, prof[1:]))


def test_tv_renewal_value_at_hundred_steps():
    # frozen exact value; decays like 3/sqrt(2 pi n), so it is still well
    # above 0.05 at n=100 and first drops below it at n=572
    v = tv_consecutive(renewal_jumps(), 100)
    assert abs(float(v) - 0.11860356943971737) < 1e-15


def test_tv_constant_one_for_deterministic_kernel():
    prof = tv_profile(uniform_jumps([(1,)]), 10)
    assert all(x == 1 for x in prof)


# -- couplings ---------------------------------------------------------------------


def test_meet_and_stick_renewal_frequency():
    hits = 0
    times = []
    for t in range(300):
        res = meet_and_stick_coupling(renewal_jumps(), 0, 1, budget=2000,
                                      seed=derive_seed(21, t))
        if res.success:
            hits += 1
            times.append(res.coupling_time)
    assert hits / 300 >= 0.8
    assert min(times) >= 1
    rerun = meet_and_stick_coupling(renewal_jumps(), 0, 1, budget=2000,
                                    seed=derive_seed(21, 0))
    first = meet_and_stick_coupling(renewal_jumps(), 0, 1, budget=2000,
                                    seed=derive_seed(21, 0))
    assert rerun == first


def test_meet_and_stick_chunks_read_one_stream():
    # growing chunks must give the coupling time of one draw for the whole budget
    vecs, cum = renewal_jumps().difference_kernel
    for t in range(60):
        gap, budget, seed = 1 + t % 20, 300 + 97 * t, derive_seed(31, t)
        u = rng_for(seed, chains._ROLE_MEET).random(budget)
        zero = np.flatnonzero(-gap + np.cumsum(vecs[np.searchsorted(cum, u, side="right")]) == 0)
        want = (chains.CouplingResult(True, coupling_time=int(zero[0]) + 1, shift=0)
                if len(zero) else chains.CouplingResult(False))
        assert meet_and_stick_coupling(renewal_jumps(), 0, gap, budget, seed) == want


def test_meet_and_stick_equal_sources():
    res = meet_and_stick_coupling(renewal_jumps(), 4, 4, budget=10, seed=1)
    assert res.success and res.coupling_time == 0


def test_meet_and_stick_deterministic_kernel_never_meets():
    for t in range(50):
        res = meet_and_stick_coupling(uniform_jumps([(1,)]), 0, 1, budget=500,
                                      seed=derive_seed(5, t))
        assert not res.success


def test_meet_trace_glues_paths():
    found = False
    for t in range(20):
        res = meet_and_stick_coupling(renewal_jumps(), 0, 1, budget=300,
                                      seed=derive_seed(8, t), record_trace=True)
        xs, ys = res.trace
        assert len(xs) == len(ys) == 301
        if res.success:
            found = True
            tc = res.coupling_time
            assert all(a == b for a, b in zip(xs[tc:], ys[tc:]))
            assert all(a != b for a, b in zip(xs[:tc], ys[:tc]))
    assert found


def oracle_traced_paths(jumps, x0, y0, budget, seed):
    """The traced paths as one draw of the whole stream decodes them: X steps
    by a throughout, Y by b until the chains meet and with X after."""
    vecs, cum = jumps.difference_kernel
    u = rng_for(seed, chains._ROLE_MEET).random(budget)
    a, b = chains._pair_steps(jumps, cum, u)
    xs = np.vstack([x0, x0 + np.cumsum(a, axis=0)])
    ys = np.vstack([y0, y0 + np.cumsum(b, axis=0)])
    met = np.flatnonzero((xs == ys).all(axis=1))
    if len(met):
        ys[met[0]:] = xs[met[0]:]
    return list(map(tuple, xs.tolist())), list(map(tuple, ys.tolist()))


def test_traced_and_untraced_meetings_agree():
    # a trace is decoded from the untraced draws and the rest of the same
    # stream, so it never changes the result
    kernels = [renewal_jumps(), nguyen_jumps(),
               JumpDistribution(((1,), (2,), (3,)), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
               uniform_jumps([(1, 0, -1), (0, 1, -1), (-1, -1, -1), (1, 1, -1)])]
    for kern in kernels:
        d = kern.dimension
        atoms = {oracle_vec(a, d) for a in kern.atoms}
        for gap in (0, 1, 2, 5):
            x, y = vertex((0,) * d), vertex((gap,) + (0,) * (d - 1))
            for t in range(100):
                seed, budget = derive_seed(41, t), 50 + 7 * t
                plain = meet_and_stick_coupling(kern, x, y, budget, seed)
                traced = meet_and_stick_coupling(kern, x, y, budget, seed, record_trace=True)
                assert (traced.success, traced.coupling_time) == (plain.success, plain.coupling_time)
                xs, ys = ([coords(v) for v in path] for path in traced.trace)
                assert (xs, ys) == oracle_traced_paths(kern, oracle_vec(x, d),
                                                       oracle_vec(y, d), budget, seed)
                assert len(xs) == len(ys) == budget + 1
                assert (xs[0], ys[0]) == (oracle_vec(x, d), oracle_vec(y, d))
                for path in (xs, ys):
                    assert all(tuple(q - p for p, q in zip(a, b)) in atoms
                               for a, b in zip(path, path[1:]))
                tc = traced.coupling_time if traced.success else budget + 1
                assert xs[tc:] == ys[tc:] and all(a != b for a, b in zip(xs[:tc], ys[:tc]))


def test_pair_steps_split_each_difference_by_product_weights():
    # on an even grid of uniforms, each pair (a, b) takes its share w_a * w_b
    weights = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    kern = JumpDistribution(((1,), (2,), (4,)), weights)
    vecs, cum = kern.difference_kernel
    n = 60_000
    a, b = chains._pair_steps(kern, cum, (np.arange(n) + 0.5) / n)
    assert (np.searchsorted(cum, (np.arange(n) + 0.5) / n, side="right")
            == np.searchsorted(vecs[:, 0], (a - b)[:, 0])).all()
    for p, wp in zip(kern.atoms, weights):
        for q, wq in zip(kern.atoms, weights):
            got = ((a[:, 0] == p[0]) & (b[:, 0] == q[0])).sum() / n
            assert abs(got - wp * wq) <= 2 / n


def test_shift_coupling_deterministic_kernel():
    res = shift_coupling(uniform_jumps([(1,)]), integer_lattice(1), 0, 3,
                         budget=50, seed=2)
    assert res.success and res.shift == 3 and res.coupling_time == 3


def test_shift_coupling_equal_sources():
    res = shift_coupling(renewal_jumps(), None, 5, 5, budget=10, seed=3)
    assert res.success and res.shift == 0 and res.coupling_time == 0


def test_shift_coupling_names_a_source_off_the_lattice():
    with pytest.raises(UnknownVertex, match=r"source \(1, 0\) not in lattice"):
        shift_coupling(uniform_jumps([(1, 1), (1, -1)]), even_sublattice(2), (0, 0), (1, 0),
                       budget=10, seed=1)


def test_shift_coupling_renewal_frequency():
    hits = sum(
        shift_coupling(renewal_jumps(), integer_lattice(1), 0, 1, budget=200,
                       seed=derive_seed(9, t)).success
        for t in range(200)
    )
    assert hits / 200 >= 0.95


def test_path_collision_same_start_deterministic():
    res = path_collision_estimate(uniform_jumps([(1,)]), 0, 0, budget=100,
                                  trials=20, seed=4)
    assert res.frequency == 1.0
    assert res.half_width == 0.0


def test_path_collision_two_jump_model():
    res = path_collision_estimate(nguyen_jumps(), (0, 0), (2, 0), budget=2000,
                                  trials=300, seed=33)
    assert res.frequency >= 0.9
    assert res.mean_steps is not None
    assert 0 < res.half_width < 0.1


def test_path_collision_never_for_parallel_deterministic_paths():
    jd = uniform_jumps([(1, 0)])
    res = path_collision_estimate(jd, (0, 0), (0, 1), budget=100, trials=20,
                                  seed=3)
    assert res.frequency == 0.0
