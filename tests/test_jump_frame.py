"""A jump law's cached tables against fresh computations, and their contract.

`JumpDistribution` builds three tables on first read: its atom rows (int64,
or Python ints once an atom passes int64), its atom cdf and its difference
kernel. On random laws (d = 1-4, Fraction and float weights) each must equal
a computation made here from the atoms and weights alone. Every table is
read-only, also in a pickled copy, and none is part of the law's repr,
equality or hash. Threads racing to build the tables of one law read what a
serial reader reads. Samplers that step int64 rows name an atom past int64,
and the chains name a start or a difference past int64. Atom draws by
`atom_index` equal `np.searchsorted(cdf, u, side="right")` on both sides of
its size rule. Suites are deterministic (derandomize=True) with a bounded
number of examples.
"""

import copy
import pickle
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtforest.analysis import LatticeChainModel, ProbeReport, one_endedness_probe
from cmtforest.chains import meet_and_stick_coupling
from cmtforest.errors import TooLarge
from cmtforest import lattice
from cmtforest.lattice import JumpDistribution, atom_cdf, atom_index, sample_lattice_cmt, uniform_jumps

SUITE = settings(derandomize=True, max_examples=150, deadline=None, database=None)

TABLES = ("atom_rows", "cdf", "difference_kernel")


@st.composite
def laws(draw):
    d = draw(st.integers(1, 4))
    atoms = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * d), min_size=1, max_size=6,
                          unique=True))
    counts = draw(st.lists(st.integers(1, 9), min_size=len(atoms), max_size=len(atoms)))
    total = sum(counts)
    if draw(st.booleans()):
        weights = tuple(Fraction(c, total) for c in counts)
    else:  # floats that sum to one within 1e-12, renormalised exactly by the law
        weights = tuple(c / total for c in counts)
    return JumpDistribution(tuple(atoms), weights)


def fresh_cdf(weights):
    cum = list(np.cumsum([float(w) for w in weights]))
    cum[-1] = 1.0
    return cum


def fresh_difference_kernel(jumps):
    """The increments of X - Y for independent steps, sorted, with their cdf."""
    mass = {}
    for a, wa in zip(jumps.atoms, jumps.weights):
        for b, wb in zip(jumps.atoms, jumps.weights):
            v = tuple(x - y for x, y in zip(a, b))
            mass[v] = mass.get(v, 0) + wa * wb
    vecs = sorted(mass)
    return [list(v) for v in vecs], fresh_cdf([mass[v] for v in vecs])


def arrays(jumps):
    vecs, cum = jumps.difference_kernel
    return [jumps.atom_rows, jumps.cdf, vecs, cum]


@SUITE
@given(laws())
def test_tables_equal_a_fresh_computation(jumps):
    rows = jumps.atom_rows
    assert rows.dtype == np.int64 and rows.tolist() == [list(a) for a in jumps.atoms]
    assert jumps.cdf.tolist() == fresh_cdf(jumps.weights)
    vecs, cum = jumps.difference_kernel
    assert vecs.dtype == np.int64
    assert (vecs.tolist(), cum.tolist()) == fresh_difference_kernel(jumps)
    assert all(getattr(jumps, t) is getattr(jumps, t) for t in TABLES)  # built once
    assert sum(jumps.weights) == 1


def test_atom_rows_past_int64_hold_python_ints():
    jumps = uniform_jumps([(2**70, -1), (-2**63, 5)])
    assert jumps.atom_rows.dtype == object
    assert jumps.atom_rows.tolist() == [[2**70, -1], [-2**63, 5]]
    assert uniform_jumps([(-2**63,), (2**63 - 1,)]).atom_rows.dtype == np.int64


def test_tables_are_read_only_also_in_a_copy():
    jumps = uniform_jumps([(1, -1), (-1, -1), (0, -2)])
    arrays(jumps)  # the tables are built before the law is copied
    for law in (jumps, pickle.loads(pickle.dumps(jumps)), copy.deepcopy(jumps)):
        for a in arrays(law):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[-1]
        assert law == jumps


def test_tables_are_kept_out_of_repr_equality_and_hash():
    read, fresh = uniform_jumps([(1,), (2,)]), uniform_jumps([(1,), (2,)])
    arrays(read)
    assert set(TABLES) <= set(vars(read)) and not set(TABLES) & set(vars(fresh))
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert repr(read) == ("JumpDistribution(atoms=((1,), (2,)), "
                          "weights=(Fraction(1, 2), Fraction(1, 2)))")
    copied = pickle.loads(pickle.dumps(read))
    assert copied == read and hash(copied) == hash(read) and not set(TABLES) & set(vars(copied))


def test_tables_built_by_racing_threads_read_the_same():
    # a table may be built by more than one thread (Python 3.12 drops the lock
    # cached_property took in 3.11); every thread must read equal tables
    atoms = [(1, 0, -1), (0, 1, -1), (-1, -1, -1), (1, 1, -1), (2, -1, -1)]
    weights = (Fraction(1, 3), Fraction(1, 6), Fraction(1, 6), Fraction(1, 4), Fraction(1, 12))

    def read(jumps):
        return [a.tolist() for a in arrays(jumps)] + [jumps.half_space]

    expect = read(JumpDistribution(atoms, weights))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            jumps = JumpDistribution(atoms, weights)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(read, jumps) for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
            assert all(r == expect for r in results)
            assert not any(a.flags.writeable for a in arrays(jumps))
    finally:
        sys.setswitchinterval(interval)


def test_meet_and_stick_reads_the_cached_kernel():
    jumps = uniform_jumps([(1,), (2,)])
    first = meet_and_stick_coupling(jumps, 0, 7, 1000, 3)
    assert "difference_kernel" in vars(jumps)
    assert meet_and_stick_coupling(jumps, 0, 7, 1000, 3) == first
    assert meet_and_stick_coupling(uniform_jumps([(1,), (2,)]), 0, 7, 1000, 3) == first


# -- atoms past int64 ----------------------------------------------------------------


@pytest.mark.parametrize("atoms, named", [
    ([(2**70,), (2**70 + 1,)], (2**70,)),
    ([(-2**63,), (2**63,)], (2**63,)),  # -2**63 is an int64
])
def test_lattice_sampler_names_an_atom_past_int64(atoms, named):
    with pytest.raises(TooLarge, match=f"^{re.escape(f'atom {named} is past int64')}$"):
        sample_lattice_cmt(None, uniform_jumps(atoms), [(0, 3)], 1)


def test_chain_model_names_an_atom_past_int64_at_construction():
    with pytest.raises(TooLarge, match=f"^{re.escape(f'atom {(2**70, 1)} is past int64')}$"):
        LatticeChainModel(uniform_jumps([(2**70, 1), (2**70, 2)]))


def test_one_endedness_probe_sums_atoms_past_int64_exactly():
    # values and half-widths as the probe gave them before the law cached its rows
    got = one_endedness_probe(uniform_jumps([(2**70,), (2**70 + 1,)]), [1, 3, 6], 20, 5)
    assert got == ProbeReport(
        probe="one-endedness", units=(1, 3, 6), values=(0.5, 0.325, 0.21796875),
        half_widths=(0.0, 0.08944271909999159, 0.08009698710781823), trials=(20, 20, 20),
        truncation_fraction=0.0, details={"n_list": [1, 3, 6], "trials": 20, "seed": 5})


@pytest.mark.parametrize("atoms, named", [
    ([(2**63 - 1,), (-2**63,)], (-2**64 + 1,)),
    ([(0, 2**62), (0, -2**62)], (0, 2**63)),  # (0, -2**63) is an int64
])
def test_meet_and_stick_names_an_atom_difference_past_int64(atoms, named):
    message = f"atom difference {named} is past int64"
    y = (3,) + (0,) * (len(named) - 1)
    with pytest.raises(TooLarge, match=f"^{re.escape(message)}$"):
        meet_and_stick_coupling(uniform_jumps(atoms), y, y, 10, 1)


def test_meet_and_stick_names_a_gap_past_int64():
    with pytest.raises(TooLarge, match=re.escape(f"x - y = {(2**63,)} is past int64")):
        meet_and_stick_coupling(uniform_jumps([(1,), (2,)]), 2**62, -2**62, 10, 1)


def test_meet_and_stick_trace_names_an_atom_past_int64():
    jumps = uniform_jumps([(2**70,), (2**70 + 1,)])
    assert meet_and_stick_coupling(jumps, 0, 3, 10, 1).success is False  # no trace, no rows
    with pytest.raises(TooLarge, match=re.escape(f"atom {(2**70,)} is past int64")):
        meet_and_stick_coupling(jumps, 0, 3, 10, 1, record_trace=True)


def test_meet_and_stick_trace_names_a_start_that_can_pass_int64():
    # the trace would wrap round silently; 20 steps below the edge it fits in budget 10
    renewal = uniform_jumps([(1,), (2,)])
    edge = 2**63 - 1
    with pytest.raises(TooLarge, match=re.escape(f"from x = {(edge,)} can pass int64")):
        meet_and_stick_coupling(renewal, edge, edge - 1, 10, 1, record_trace=True)
    fits = meet_and_stick_coupling(renewal, edge - 20, edge - 21, 10, 1, record_trace=True)
    assert max(fits.trace[0] + fits.trace[1]) <= edge


def test_chain_model_names_a_start_past_int64():
    model = LatticeChainModel(uniform_jumps([(1, 1), (-1, 1)]))
    with pytest.raises(TooLarge, match=re.escape(f"starts[0] {(2**63, 0)} is past int64")):
        model.run([(2**63, 0), (2**63 + 2, 0)], 5, 2, 1)
    with pytest.raises(TooLarge, match="a chain from starts can step past int64"):
        model.run([(2**63 - 1, 0), (2**63 - 3, 0)], 5, 2, 1)
    # five steps of +1 from 2**63 - 6 stay an int64; a huge budget alone is no fault
    assert model.run([(2**63 - 6, 0), (2**63 - 8, 0)], 5, 2, 1).shape == (2, 2)
    assert model.run([(0, 0), (2, 0)], 10**20, 2, 1).tolist() == [[0, 0], [0, 0]]


# -- atom draws ------------------------------------------------------------------------


@st.composite
def draws(draw):
    """(cdf, u): an atom_cdf over 1-40 atoms, some weights tiny enough that
    cdf entries repeat, and uniforms in [0, 1) that hit every entry and its
    neighbours, in a shape whose size falls on either side of the count rule."""
    k = draw(st.integers(1, 40))
    weights = draw(st.lists(st.sampled_from([1.0, 0.5, 3.0, 1e-30, 1e-300]),
                            min_size=k, max_size=k))
    cdf = atom_cdf([w / sum(weights) for w in weights])
    edges = [x for c in cdf[:-1].tolist()
             for x in (np.nextafter(c, 0), c, np.nextafter(c, 1)) if x < 1]
    edges += [0.0, np.nextafter(1.0, 0), 0.5]
    rule = lattice._COUNT_DRAWS * (k - 1)
    size = draw(st.sampled_from([0, 1, len(edges), max(rule - 1, 0), rule, rule + 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.random(size)
    at_edge = rng.random(size) < 0.5
    u[at_edge] = rng.choice(edges, int(at_edge.sum()))
    shape = draw(st.sampled_from(["flat", "3-d"]))
    if shape == "3-d" and size:
        u = u.reshape(1, size, 1) if size % 2 else u.reshape(2, size // 2, 1)
    return cdf, u


@SUITE
@given(draws())
def test_atom_index_equals_searchsorted(case):
    cdf, u = case
    expect = np.searchsorted(cdf, u, side="right")
    with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
        got = atom_index(cdf, u)
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert (got == expect).all()
    k = len(cdf)
    assert search.called == (k > lattice._COUNT_ATOMS or u.size < lattice._COUNT_DRAWS * (k - 1))


def test_atom_index_counts_on_both_sides_of_every_threshold():
    cdf = atom_cdf([0.25, 1e-300, 0.5, 0.25])  # entries 0.25, 0.25, 0.75, 1.0
    near = [x for c in (0.25, 0.75) for x in (np.nextafter(c, 0), c, np.nextafter(c, 1))]
    u = np.repeat(near + [0.0, np.nextafter(1.0, 0)], 4096)
    with mock.patch.object(np, "searchsorted") as search:
        got = atom_index(cdf, u)
    assert not search.called
    assert got.reshape(-1, 4096)[:, 0].tolist() == [0, 2, 2, 2, 3, 3, 0, 3]
    assert atom_index(atom_cdf([1]), np.zeros((0, 3))).shape == (0, 3)
