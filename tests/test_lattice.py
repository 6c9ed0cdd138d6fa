"""Exact kernel-condition deciders, cross-checked against independent oracles."""

from fractions import Fraction
from itertools import combinations

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from cmtforest.errors import BadDimension, ConfigError, EmptyWindow, MalformedJump
from cmtforest.lattice import (
    JumpDistribution,
    LatticeSpec,
    check_cycle_free,
    check_model_conditions,
    check_weak_aperiodicity,
    check_weak_irreducibility,
    even_sublattice,
    in_lattice,
    integer_lattice,
    lattice_coordinates,
    sample_lattice_cmt,
    uniform_jumps,
)
from cmtforest.seeds import rng_for


# -- oracles ------------------------------------------------------------------


def span_is_full_oracle(vectors, d):
    """Integer span test via Smith normal form (independent route)."""
    if not vectors:
        return False
    m = Matrix([[v[i] for v in vectors] for i in range(d)])
    snf = smith_normal_form(m)
    diag = [snf[i, i] for i in range(min(snf.rows, snf.cols))]
    return sum(1 for x in diag if abs(x) == 1) == d


def zero_in_hull_oracle(atoms):
    """Exact Caratheodory search for a zero convex combination."""
    d = len(atoms[0])
    for k in range(1, d + 2):
        for sub in combinations(range(len(atoms)), k):
            rows = [[Fraction(atoms[i][c]) for i in sub] for c in range(d)]
            rows.append([Fraction(1)] * k)
            rhs = [Fraction(0)] * d + [Fraction(1)]
            sol = _solve_unique(rows, rhs, k)
            if sol is not None and all(x >= 0 for x in sol):
                return True
    return False


def _solve_unique(rows, rhs, k):
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    r = 0
    piv_cols = []
    for c in range(k):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            return None  # rank-deficient, not a basic subset
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, len(m)):
        if m[i][k] != 0:
            return None  # inconsistent
    return [m[i][k] for i in range(k)]


def random_jumps(seed, d, n_atoms):
    rng = rng_for(seed, 0x1A)
    atoms = set()
    while len(atoms) < n_atoms:
        atoms.add(tuple(int(x) for x in rng.integers(-3, 4, size=d)))
    return uniform_jumps(sorted(atoms))


# -- frozen model verdicts ------------------------------------------------------


def nguyen_jumps():
    return uniform_jumps([(1, -1), (-1, -1)])


def variant_jumps():
    return uniform_jumps([(-1, -1), (1, -1), (0, -2)])


def test_two_jump_parity_model_verdicts():
    lat = even_sublattice(2)
    jd = nguyen_jumps()
    assert check_cycle_free(jd, lat).holds
    assert check_weak_irreducibility(jd, lat).holds
    assert not check_weak_aperiodicity(jd, lat).holds


@pytest.mark.parametrize("atom, lattice", [
    ((3,), None),
    ((3, -2), integer_lattice(2)),
    ((1, 1), even_sublattice(2)),
])
def test_one_atom_kernel_is_not_weakly_aperiodic(atom, lattice):
    check = check_weak_aperiodicity(uniform_jumps([atom]), lattice)
    assert (check.holds, check.witness) == (False, ())


def test_three_jump_variant_verdicts():
    lat = even_sublattice(2)
    report = check_model_conditions(variant_jumps(), lat)
    assert report.cycle_free
    assert report.weakly_irreducible
    assert report.weakly_aperiodic
    assert set(report.witnesses) == {
        "cycle-free", "weak-irreducibility", "weak-aperiodicity",
    }


def test_renewal_support_verdicts():
    report = check_model_conditions(uniform_jumps([(1,), (2,)]))
    assert (report.cycle_free, report.weakly_irreducible,
            report.weakly_aperiodic) == (True, True, True)


def test_symmetric_walk_is_not_cycle_free():
    rep = check_cycle_free(uniform_jumps([(-1,), (1,)]))
    assert not rep.holds
    assert rep.witness == (Fraction(1, 2), Fraction(1, 2))


def test_zero_atom_kills_cycle_freeness():
    assert not check_cycle_free(uniform_jumps([(0, 0), (1, 0)])).holds


def test_higher_dimension_parity_model():
    d = 4
    lat = even_sublattice(d)
    atoms = []
    for i in range(d - 1):
        for s in (1, -1):
            a = [0] * d
            a[i] = s
            a[d - 1] = -1
            atoms.append(tuple(a))
    jd = uniform_jumps(atoms)
    assert check_cycle_free(jd, lat).holds
    assert check_weak_irreducibility(jd, lat).holds


# -- witness verification (independent of the deciders' own asserts) ------------


def test_half_space_witness_substitutes():
    jd = nguyen_jumps()
    u = check_cycle_free(jd).witness
    for a in jd.atoms:
        assert sum(Fraction(c) * x for c, x in zip(a, u)) > 0


def test_zero_combination_witness_substitutes():
    jd = uniform_jumps([(1, 0), (-1, 1), (0, -1), (2, 2)])
    rep = check_cycle_free(jd)
    assert not rep.holds
    lam = rep.witness
    assert sum(lam) == 1 and all(x >= 0 for x in lam)
    for c in range(2):
        assert sum(l * a[c] for l, a in zip(lam, jd.atoms)) == 0


def test_span_certificate_expresses_basis():
    jd = variant_jumps()
    lat = even_sublattice(2)
    rep = check_weak_irreducibility(jd, lat)
    coords = [lattice_coordinates(lat, a) for a in jd.atoms]
    for i, combo in enumerate(rep.witness):
        vec = [sum(c * z[t] for c, z in zip(combo, coords)) for t in range(2)]
        assert vec == [int(i == t) for t in range(2)]


# -- randomized cross-checks against the oracles --------------------------------


def test_cycle_free_matches_hull_oracle():
    for seed in range(40):
        for d in (1, 2, 3):
            jd = random_jumps(seed * 3 + d, d, min(d + 2, 4))
            got = check_cycle_free(jd).holds
            assert got == (not zero_in_hull_oracle(jd.atoms)), (seed, d, jd.atoms)


def test_irreducibility_matches_snf_oracle():
    for seed in range(40):
        for d in (1, 2, 3):
            jd = random_jumps(seed * 7 + d, d, d + 2)
            got = check_weak_irreducibility(jd).holds
            assert got == span_is_full_oracle(jd.atoms, d), (seed, d, jd.atoms)


def test_aperiodicity_matches_snf_oracle():
    for seed in range(40):
        for d in (1, 2, 3):
            jd = random_jumps(seed * 11 + d, d, d + 2)
            base = jd.atoms[0]
            diffs = [tuple(a - b for a, b in zip(x, base)) for x in jd.atoms[1:]]
            diffs = [v for v in diffs if any(v)]
            got = check_weak_aperiodicity(jd).holds
            assert got == span_is_full_oracle(diffs, d), (seed, d, jd.atoms)


# -- lattice membership ----------------------------------------------------------


def test_even_sublattice_coordinates():
    lat = even_sublattice(2)
    assert lattice_coordinates(lat, (2, 0)) == (2, -1)
    assert lattice_coordinates(lat, (1, 1)) == (1, 0)
    assert lattice_coordinates(lat, (1, 0)) is None


def test_swapped_basis_coordinates():
    # the first basis row has a zero pivot, so the elimination swaps rows
    assert lattice_coordinates(LatticeSpec(2, ((0, 1), (1, 0))), (3, 5)) == (5, 3)


def test_even_sublattice_is_parity():
    lat = even_sublattice(3)
    rng = rng_for(5, 0x1B)
    for _ in range(50):
        p = tuple(int(x) for x in rng.integers(-10, 11, size=3))
        assert in_lattice(lat, p) == (sum(p) % 2 == 0)


def test_validation_errors():
    with pytest.raises(MalformedJump):
        JumpDistribution(((1, 0), (1, 0)), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(MalformedJump):
        JumpDistribution(((1, 0),), (Fraction(1, 2),))
    with pytest.raises(MalformedJump):
        check_weak_irreducibility(uniform_jumps([(1, 0)]), even_sublattice(2))
    with pytest.raises(BadDimension):
        check_weak_irreducibility(uniform_jumps([(1, 0)]), integer_lattice(3))


@pytest.mark.parametrize(
    "check", [check_cycle_free, check_weak_irreducibility, check_weak_aperiodicity])
def test_every_check_reads_the_atoms_on_its_lattice(check):
    with pytest.raises(MalformedJump, match="not a lattice point"):
        check(uniform_jumps([(1, 0)]), even_sublattice(2))
    with pytest.raises(BadDimension, match="lattice in 5"):
        check(uniform_jumps([(1, 0)]), integer_lattice(5))


def test_float_weights_normalised_exactly():
    # 0.3 + 0.7 misses 1 by ~5.5e-17 in binary; still accepted and rescaled
    jd = JumpDistribution(((1,), (2,)), (0.3, 0.7))
    assert sum(jd.weights) == 1
    assert all(isinstance(w, Fraction) for w in jd.weights)
    with pytest.raises(MalformedJump):
        JumpDistribution(((1,), (2,)), (0.3, 0.6))


# -- window sampling --------------------------------------------------------------


def test_sample_window_determinism_and_structure():
    lat = even_sublattice(2)
    jd = nguyen_jumps()
    box = [(-6, 6), (-6, 6)]
    a = sample_lattice_cmt(lat, jd, box, seed=99)
    b = sample_lattice_cmt(lat, jd, box, seed=99)
    c = sample_lattice_cmt(lat, jd, box, seed=100)
    assert a.jump == b.jump and a.exits == b.exits
    assert a.jump != c.jump

    atoms = set(jd.atoms)
    for v in a.vertices:
        assert sum(v) % 2 == 0
        assert (v in a.jump) != (v in a.exits)
    for s, t in a.jump.items():
        assert tuple(x - y for x, y in zip(t, s)) in atoms


def test_sample_window_interior():
    lat = integer_lattice(2)
    jd = uniform_jumps([(1, -1), (-1, -1)])
    box = [(0, 5), (0, 5)]
    fw = sample_lattice_cmt(lat, jd, box, seed=3)
    for v in fw.vertices:
        expect = all(
            0 <= v[0] + a[0] <= 5 and 0 <= v[1] + a[1] <= 5 for a in jd.atoms
        )
        assert (v in fw.interior) == (expect and v in fw.jump)


def test_sample_window_space_wrap():
    lat = even_sublattice(2)
    jd = variant_jumps()
    fw = sample_lattice_cmt(lat, jd, [(0, 7), (0, 9)], seed=11, wrap=(8, None))
    for s, t in fw.jump.items():
        assert 0 <= t[0] < 8
        dx = (t[0] - s[0]) % 8
        assert dx in (0, 1, 7)
    # exits only through the unwrapped time axis
    for v in fw.exits:
        assert any(v[1] + a[1] < 0 for a in jd.atoms)


@pytest.mark.parametrize(
    "lattice, box, wrap",
    [
        # 7*e_a is not on the even sublattice: 7 of 49 points would lose their jumps
        (even_sublattice(2), [(0, 6), (0, 6)], (7, 7)),
        # the box of a wrapped axis must be [0, L-1]
        (integer_lattice(2), [(1, 8), (0, 7)], (8, 8)),
        (integer_lattice(2), [(0, 6), (0, 7)], (8, None)),
        # one modulus or None per axis
        (integer_lattice(2), [(0, 7), (0, 7)], (8,)),
    ],
)
def test_sample_window_rejects_bad_wrap(lattice, box, wrap):
    jd = uniform_jumps([(1, 1), (1, -1)])
    with pytest.raises(ConfigError, match="wrap"):
        sample_lattice_cmt(lattice, jd, box, seed=1, wrap=wrap)


def test_sample_window_names_a_lattice_that_is_not_one():
    with pytest.raises(ConfigError, match="LatticeSpec"):
        sample_lattice_cmt("x", uniform_jumps([(1,)]), [(0, 3)], seed=0)


def test_sample_window_dimension_one_uses_ints():
    fw = sample_lattice_cmt(integer_lattice(1), uniform_jumps([(1,), (2,)]),
                            [(0, 30)], seed=4)
    assert all(isinstance(v, int) for v in fw.vertices)
    for s, t in fw.jump.items():
        assert t - s in (1, 2)


def test_sample_window_empty_box():
    # single odd point, so no even-sum lattice point falls in the box
    with pytest.raises(EmptyWindow):
        sample_lattice_cmt(even_sublattice(2), variant_jumps(), [(1, 1), (0, 0)],
                           seed=0)
    with pytest.raises(EmptyWindow):
        sample_lattice_cmt(integer_lattice(1), uniform_jumps([(1,)]),
                           [(5, 4)], seed=0)
