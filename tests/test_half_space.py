"""The cycle-free decider against independent oracles, and its bounds.

`check_cycle_free` first solves u . a = 1 over the atoms (the grading), and
otherwise decides Gordan's alternative by an exact phase-one simplex. The
Fourier-Motzkin elimination it replaced is kept here as the verdict oracle,
beside the Caratheodory search of `test_lattice` and a sympy solve of the
grading. The suite is deterministic (derandomize=True) with a bounded number
of examples; the elimination is exponential, so its draws stay small.
"""

import io
import json
import pickle
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Matrix

from cmtforest.analysis import LatticeChainModel
from cmtforest.chains import green_function, green_table
from cmtforest.cli import main
from cmtforest import lattice as lattice_module
from cmtforest.errors import BadDimension
from cmtforest.lattice import (
    ConditionCheck,
    LatticeSpec,
    _det_and_adjugate,
    check_cycle_free,
    check_model_conditions,
    even_sublattice,
    integer_lattice,
    uniform_jumps,
)
from test_lattice import zero_in_hull_oracle

SUITE = settings(derandomize=True, max_examples=120, deadline=None, database=None)


# -- oracles ------------------------------------------------------------------


def fourier_motzkin(rows):
    """Feasibility of {u : row . u >= 1} by Fourier-Motzkin elimination, with
    tracked certificates: (True, u) or (False, lam), lam a convex combination
    of the rows equal to zero. The decider this package ran before."""
    d = len(rows[0])
    cons = [
        (tuple(Fraction(c) for c in row), Fraction(1),
         tuple(Fraction(int(i == k)) for i in range(len(rows))))
        for k, row in enumerate(rows)
    ]
    systems = [cons]
    for var in range(d):
        pos, neg, rest = [], [], []
        for coeffs, rhs, combo in systems[-1]:
            c = coeffs[var]
            if c > 0:
                s = 1 / c
                pos.append((tuple(x * s for x in coeffs), rhs * s,
                            tuple(x * s for x in combo)))
            elif c < 0:
                s = -1 / c
                neg.append((tuple(x * s for x in coeffs), rhs * s,
                            tuple(x * s for x in combo)))
            else:
                rest.append((coeffs, rhs, combo))
        for pc, pr, pb in pos:
            for nc, nr, nb in neg:
                coeffs = tuple(a + b for a, b in zip(pc, nc))
                rhs = pr + nr
                combo = tuple(a + b for a, b in zip(pb, nb))
                if all(c == 0 for c in coeffs) and rhs <= 0:
                    continue
                rest.append((coeffs, rhs, combo))
        rest = list({(c, r): (c, r, b) for c, r, b in rest}.values())
        systems.append(rest)

    for coeffs, rhs, combo in systems[-1]:
        if rhs > 0:
            total = sum(combo)
            lam = tuple(x / total for x in combo)
            zero = [sum(l * Fraction(r[i]) for l, r in zip(lam, rows))
                    for i in range(d)]
            assert all(z == 0 for z in zero) and sum(lam) == 1
            return False, lam

    u = [Fraction(0)] * d
    for var in range(d - 1, -1, -1):
        lo, hi = None, None
        for coeffs, rhs, _ in systems[var]:
            c = coeffs[var]
            if c == 0:
                continue
            bound = (rhs - sum(coeffs[j] * u[j] for j in range(var + 1, d))) / c
            if c > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is not None and hi is not None:
            u[var] = (lo + hi) / 2
        elif lo is not None:
            u[var] = lo
        elif hi is not None:
            u[var] = hi
    assert all(sum(c * x for c, x in zip(row, u)) >= 1 for row in rows)
    return True, tuple(u)


def sympy_grading(atoms):
    """The solution of u . a = 1 over the atoms with its free parameters 0, or None."""
    a = Matrix(atoms)
    try:
        sol, params = a.gauss_jordan_solve(Matrix([1] * len(atoms)))
    except ValueError:  # no solution
        return None
    sol = sol.subs({p: 0 for p in params}) if params.shape[0] else sol
    return tuple(Fraction(int(x.p), int(x.q)) for x in sol)


def parent_det_and_adjugate(basis):
    """The determinant and adjugate as computed before the shared pivot."""
    d = len(basis)
    m = [[Fraction(basis[j][i]) for j in range(d)] for i in range(d)]
    inv = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    det = Fraction(1)
    for col in range(d):
        piv = next((r for r in range(col, d) if m[r][col] != 0), None)
        if piv is None:
            raise BadDimension("basis is singular")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            det = -det
        det *= m[col][col]
        scale = m[col][col]
        m[col] = [x / scale for x in m[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(d):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[col])]
    return int(det), tuple(tuple(int(inv[i][j] * det) for j in range(d)) for i in range(d))


def dot(a, u):
    return sum(Fraction(x) * y for x, y in zip(a, u))


def check_kernel_stdout(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["check-kernel", *argv]) == 0
    return out.getvalue()


def support(atoms):
    return "--support=" + ";".join(",".join(map(str, a)) for a in atoms)


# -- the decider against the oracles -----------------------------------------------


@st.composite
def kernels(draw):
    """(lattice name, lattice, atoms): d = 1-4 on Z^d, the even sublattice or
    a random nonsingular basis B, atoms B c for distinct small c. In a graded
    draw every c has c_0 = 1, so the atoms are graded by B^-T e_0; a cyclic
    draw adds a c that puts zero in the hull."""
    d = draw(st.integers(1, 4))
    name = draw(st.sampled_from(["integer", "even", "basis"]))
    if name == "basis":
        cols = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=d, max_size=d))
        try:
            lattice = LatticeSpec(d, tuple(cols))
        except BadDimension:
            assume(False)
    else:
        lattice = integer_lattice(d) if name == "integer" else even_sublattice(d)
    mode = draw(st.sampled_from(["graded", "free", "cyclic"]))
    # a free draw of d + 1 or more atoms is seldom graded, so it reaches the simplex
    n = draw(st.sampled_from(range(d + 1, d + 3) if mode == "free" else range(1, d + 2)))
    cs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=n, max_size=n,
                       unique=True))
    if mode == "graded":
        cs = [(1, *c[1:]) for c in cs]
    elif mode == "cyclic":  # the first two c and their negated sum average to zero
        cs.append(tuple(-sum(x) for x in zip(*cs[:2])))
    cs = list(dict.fromkeys(cs))
    atoms = [tuple(sum(b[i] * x for b, x in zip(lattice.basis, c)) for i in range(d))
             for c in cs]
    return name, lattice, atoms


DRAWN = set()  # (holds, graded, lattice name) of every draw


@SUITE
@given(kernels())
def test_decider_equals_the_oracles(case):
    name, lattice, atoms = case
    jumps = uniform_jumps(atoms)
    check = check_cycle_free(jumps, lattice)
    assert (check.holds, check.witness) == jumps.half_space
    assert check.holds == fourier_motzkin(atoms)[0] == (not zero_in_hull_oracle(atoms))
    if check.holds:
        assert all(dot(a, check.witness) >= 1 for a in atoms)
    else:
        lam = check.witness
        assert sum(lam) == 1 and min(lam) >= 0
        assert all(dot(col, lam) == 0 for col in zip(*atoms))
    graded = sympy_grading(atoms)
    DRAWN.add((check.holds, graded is not None, name))
    if graded is not None:
        assert check.witness == graded
    else:  # a grading is found whenever one exists
        assert not (check.holds and all(dot(a, check.witness) == 1 for a in atoms))
    if name != "basis":  # the CLI names its two lattices
        report = check_model_conditions(jumps, lattice)
        expect = "".join(f"{c}: {str(getattr(report, c)).lower()}\n" for c in
                         ("cycle_free", "weakly_irreducible", "weakly_aperiodic"))
        expect += "".join(f"witness {c}: {w}\n" for c, w in sorted(report.witnesses.items()))
        assert check_kernel_stdout(support(atoms), f"--lattice={name}") == expect


def test_the_draws_reach_every_outcome():
    # the suite above reaches the grading, the simplex's two outcomes and each lattice
    if not DRAWN:  # this test was run alone
        test_decider_equals_the_oracles()
    assert {s[:2] for s in DRAWN} == {(True, True), (True, False), (False, False)}
    assert {s[2] for s in DRAWN} == {"integer", "even", "basis"}


def test_det_and_adjugate_equals_the_parent_body():
    rnd = random.Random(32)
    singular = 0
    for _ in range(200):
        d = rnd.randint(1, 5)
        basis = tuple(tuple(rnd.randint(-4, 4) for _ in range(d)) for _ in range(d))
        try:
            expect = parent_det_and_adjugate(basis)
        except BadDimension:
            singular += 1
            with pytest.raises(BadDimension, match="singular"):
                _det_and_adjugate(basis)
            continue
        assert _det_and_adjugate(basis) == expect
    assert 0 < singular < 50


def test_the_verdict_is_decided_once_per_law(monkeypatch):
    # the law caches (holds, witness); each check is a fresh ConditionCheck built from it
    decided = []
    monkeypatch.setattr(lattice_module, "_half_space",
                        lambda rows, decide=lattice_module._half_space: decided.append(rows) or decide(rows))
    jumps = uniform_jumps([(1, 0), (1, 2)])
    first = check_cycle_free(jumps)
    first.holds, first.witness = False, None  # the caller's own copy
    green_function(jumps, (3, 1))
    green_table(jumps, [(3, 1)])
    LatticeChainModel(jumps)
    assert check_cycle_free(jumps) == ConditionCheck(
        "cycle-free", True, (1, 0), "direction with strictly positive dot product on every atom")
    assert len(decided) == 1
    with pytest.raises(AttributeError):
        jumps.half_space = (False, ())
    copied = pickle.loads(pickle.dumps(jumps))
    assert "half_space" not in vars(copied) and copied == jumps == uniform_jumps([(1, 0), (1, 2)])


# -- kernels graded along a direction Fourier-Motzkin's witness misses -------------


@pytest.mark.parametrize("atoms, u", [
    ([(3, 1), (1, 1)], (0, 1)),
    ([(1, 2), (3, 2)], (0, Fraction(1, 2))),
    ([(2, 1), (1, 1)], (0, 1)),
])
def test_chain_model_accepts_every_graded_kernel(atoms, u):
    model = LatticeChainModel(uniform_jumps(atoms))
    assert model.witness == u
    starts = model.default_starts(2)
    assert model.run(starts, 20, 5, 1).shape == (5, 2)


def test_green_horizon_reads_the_grading():
    # the witness (1, 0) swept 201 terms; the grading (0, 1) sweeps 101, to the same value
    jumps = uniform_jumps([(3, 1), (1, 1)])
    green = green_function(jumps, (200, 100))
    assert green.terms == 101 and green.probability
    assert green.value == green_function(jumps, (200, 100), horizon=200).value
    assert green_table(jumps, [(200, 100)]) == {(200, 100): green.value}


def test_cli_runs_a_chain_probe_on_a_graded_kernel(tmp_path):
    payload = {"model": {"model": "lattice", "support": [[3, 1], [1, 1]], "box": [[0, 6], [0, 6]]},
               "probes": [{"probe": "count-components", "k": 2, "budget": 50, "trials": 10}],
               "seed": 1}
    config = tmp_path / "graded.json"
    config.write_text(json.dumps(payload))
    assert main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 0


# -- the elimination's blow-up, bounded ---------------------------------------------

# drawn from random.Random(2) with coordinates in [-5, 5]; neither is cycle-free, and
# Fourier-Motzkin ran for over 20 s on each on a 2-vCPU x86 VM
NOT_CYCLE_FREE = {
    "4-D 10 atoms": [(-5, -5, 0, 2), (-5, -4, -4, 0), (-3, 3, -3, -2), (-3, 5, -1, -1),
                     (-2, -5, -3, 0), (0, 1, 1, 3), (3, 2, 3, -1), (4, -2, 4, -5),
                     (4, 5, -3, 1), (5, 1, 3, 0)],
    "3-D 20 atoms": [(-5, -5, 0), (-5, -4, -4), (-3, 1, 2), (-3, 2, 1), (-2, -5, -3),
                     (-2, 4, -5), (-1, -1, 4), (0, -3, -3), (0, -3, 5), (0, 0, 2),
                     (1, 3, -3), (1, 5, 1), (2, 0, 1), (2, 3, -1), (3, -3, -2),
                     (3, 0, 3), (3, 0, 4), (3, 3, 0), (3, 5, 3), (4, 5, -3)],
}


@pytest.mark.parametrize("atoms", NOT_CYCLE_FREE.values(), ids=NOT_CYCLE_FREE.keys())
def test_large_kernels_are_decided_within_a_second(atoms):
    start = time.process_time()
    check = check_cycle_free(uniform_jumps(atoms))
    assert time.process_time() - start < 1
    assert not check.holds
    assert all(dot(col, check.witness) == 0 for col in zip(*atoms))
    start = time.process_time()
    out = check_kernel_stdout(support(atoms))
    assert time.process_time() - start < 1
    assert out.startswith("cycle_free: false\n")
