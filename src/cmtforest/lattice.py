"""Lattices, jump distributions, and exact kernel-condition deciders.

The three conditions a translation-invariant jump kernel may satisfy:

* cycle-free: no convex combination of the jump atoms is zero, i.e. the
  atoms fit in an open half-space,
* weak irreducibility: the integer span of the atoms is the whole lattice,
* weak aperiodicity: the integer span of pairwise atom differences is the
  whole lattice.

All three are decided exactly over the rationals, never with floats, and
every verdict carries a witness that the decider re-checks by substitution
before returning.
"""

import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BadDimension, ConfigError, EmptyWindow, MalformedJump, TooLarge
from .errors import _check_steps, _point
from .forest import _freeze, box_grid, build_forest
from .seeds import rng_for

_ROLE_LATTICE = 0xA1


@dataclass(frozen=True)
class LatticeSpec:
    """A full-rank sublattice of Z^d, given by integer basis columns. The
    basis is checked and inverted once, here: frame is (det, adj), adj = det
    times the inverse, and every lattice question reads it."""

    dimension: int
    basis: tuple = None
    frame: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.dimension
        _check_steps("dimension", d, least=None)
        if d < 1:
            raise BadDimension(str(d))
        if self.basis is None:
            ident = tuple(tuple(int(i == j) for i in range(d)) for j in range(d))
            object.__setattr__(self, "basis", ident)
        if (not hasattr(self.basis, "__len__") or len(self.basis) != d
                or any(not hasattr(c, "__len__") or len(c) != d for c in self.basis)):
            raise BadDimension("basis shape does not match dimension")
        for j, col in enumerate(self.basis):
            for i, x in enumerate(col):
                _check_steps(f"basis[{j}][{i}]", x, least=None)
        object.__setattr__(self, "frame", _det_and_adjugate(self.basis))  # raises if singular


def integer_lattice(d):
    return LatticeSpec(d)


_default_lattice = functools.cache(integer_lattice)  # Z^d, read for a None lattice


def even_sublattice(d):
    """Points of Z^d with even coordinate sum (parity-preserving models)."""
    cols = [
        tuple(1 if i in (j, d - 1) else 0 for i in range(d)) for j in range(d - 1)
    ]
    cols.append(tuple(2 if i == d - 1 else 0 for i in range(d)))
    return LatticeSpec(d, tuple(cols))


@dataclass(frozen=True)
class JumpDistribution:
    """Finitely supported jump law; weights are renormalised to exact
    rationals provided they sum to one within 1e-12."""

    atoms: tuple
    weights: tuple

    def __post_init__(self):
        atoms = tuple(_point(f"atoms[{i}]", a) for i, a in enumerate(_items("atoms", self.atoms)))
        weights = tuple(_weight(f"weights[{i}]", w)
                        for i, w in enumerate(_items("weights", self.weights)))
        if not atoms:
            raise MalformedJump("no atoms")
        d = len(atoms[0])
        if any(len(a) != d for a in atoms):
            raise MalformedJump("atoms of mixed dimension")
        if len(set(atoms)) != len(atoms):
            raise MalformedJump("repeated atom")
        if len(weights) != len(atoms):
            raise MalformedJump("atom/weight length mismatch")
        if any(w <= 0 for w in weights):
            raise MalformedJump("weights must be positive")
        total = sum(weights)
        if abs(total - 1) > Fraction(1, 10**12):
            raise MalformedJump("weights must sum to one")
        if total != 1:
            weights = tuple(w / total for w in weights)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def __reduce__(self):  # pickles the law alone; a copy builds its read-only tables anew
        return JumpDistribution, (self.atoms, self.weights)

    @property
    def dimension(self):
        return len(self.atoms[0])

    @functools.cached_property
    def atom_rows(self):
        """The atoms as rows: int64, or Python ints once an atom passes int64."""
        try:
            return _freeze(np.array(self.atoms, dtype=np.int64))
        except OverflowError:
            return _freeze(np.array(self.atoms, dtype=object))

    @functools.cached_property
    def half_space(self):
        """check_cycle_free's (holds, witness), decided once per law."""
        return _half_space(self.atoms)

    @functools.cached_property
    def cdf(self):
        return atom_cdf(self.weights)

    @functools.cached_property
    def difference_kernel(self):
        """Increments of X - Y for independent steps X, Y, with their atom_cdf."""
        diff = {}
        for a, wa in zip(self.atoms, self.weights):
            for b, wb in zip(self.atoms, self.weights):
                v = tuple(x - y for x, y in zip(a, b))
                diff[v] = diff.get(v, Fraction(0)) + wa * wb
        vecs = sorted(diff)
        big = next((v for v in vecs if not _in_int64(v)), None)
        if big is not None:
            raise TooLarge(f"atom difference {big} is past int64")
        return _freeze(np.array(vecs, dtype=np.int64)), atom_cdf([diff[v] for v in vecs])


def _items(name, seq):
    """The items of seq as a tuple; MalformedJump names a seq that is not iterable."""
    try:
        return tuple(seq)
    except TypeError:
        raise MalformedJump(f"{name} must be a sequence, got {seq!r}") from None


def _weight(name, w):
    """The weight w as an exact Fraction: a finite real that is not a bool, or
    a string that Fraction reads. MalformedJump names it otherwise."""
    try:
        if not isinstance(w, bool):
            return Fraction(float(w) if isinstance(w, np.floating) else w)
    except (TypeError, ValueError, OverflowError):  # not a number, nan or inf
        pass
    raise MalformedJump(f"{name} must be a finite real number, got {w!r}")


def _in_int64(v):
    """Whether every coordinate of the point v is an int64."""
    return all(-2**63 <= c < 2**63 for c in v)


def _int64_rows(jumps):
    """The law's atom rows, or TooLarge naming an atom past int64."""
    if jumps.atom_rows.dtype == object:
        big = next(a for a in jumps.atoms if not _in_int64(a))
        raise TooLarge(f"atom {big} is past int64")
    return jumps.atom_rows


def atom_cdf(weights):
    """Cumulative float weights with the last entry pinned to 1.0, read-only;
    draw atom indices with atom_index(cdf, u) for uniforms u."""
    cum = np.cumsum([float(w) for w in weights])
    cum[-1] = 1.0
    return _freeze(cum)


_COUNT_ATOMS = 32
_COUNT_DRAWS = 1024


def atom_index(cdf, u):
    """np.searchsorted(cdf, u, side="right") for uniforms u in [0, 1) and a
    cdf whose last entry is 1.0 (an atom_cdf): the count of the other
    entries at or below u.

    Counting makes one vectorised pass over u per threshold, where
    searchsorted binary-searches each draw, so it wins on many draws and few
    atoms: on a 2-vCPU x86 VM with numpy 2.4, 32,768 draws took 30 us
    counted and 340 us searched with 2 atoms, 115 and 505 us with 6. It
    loses on short draws (64 draws with 3 atoms: 3.4 against 1.4 us) and
    on laws of about 64 atoms. Counting overtook searching at 350-800 draws
    per threshold for laws of 2-8 atoms. So it counts when the law has at
    most _COUNT_ATOMS atoms and u has at least _COUNT_DRAWS draws per
    threshold, and searches otherwise.
    """
    cdf, u = np.asarray(cdf), np.asarray(u)
    if len(cdf) > _COUNT_ATOMS or u.size < _COUNT_DRAWS * (len(cdf) - 1):
        return np.searchsorted(cdf, u, side="right")
    idx = np.zeros(u.shape, dtype=np.intp)
    for c in cdf[:-1].tolist():
        idx += u >= c
    return idx


def uniform_jumps(atoms):
    atoms = _items("atoms", atoms)
    return JumpDistribution(atoms, tuple(Fraction(1, len(atoms)) for _ in atoms))


@dataclass
class ConditionCheck:
    condition: str
    holds: bool
    witness: object
    detail: str = ""


@dataclass
class KernelConditionReport:
    cycle_free: bool
    weakly_irreducible: bool
    weakly_aperiodic: bool
    witnesses: dict = field(default_factory=dict)


# -- lattice coordinates ------------------------------------------------------


def _pivot(t, r, c):
    """Gauss-Jordan pivot of the Fraction tableau t, a list of rows, on t[r][c]:
    row r is scaled to 1 in column c, and every other row is cleared there."""
    t[r] = [x / t[r][c] for x in t[r]]
    for i, row in enumerate(t):
        if i != r and (f := row[c]):
            t[i] = [a - f * b for a, b in zip(row, t[r])]


def _det_and_adjugate(basis):
    """Exact determinant and adjugate of the basis matrix (columns given)."""
    d = len(basis)
    t = [[Fraction(basis[j][i]) for j in range(d)] + [Fraction(int(i == j)) for j in range(d)]
         for i in range(d)]
    det = Fraction(1)
    for col in range(d):
        piv = next((r for r in range(col, d) if t[r][col] != 0), None)
        if piv is None:
            raise BadDimension("basis is singular")
        if piv != col:
            t[col], t[piv] = t[piv], t[col]
            det = -det
        det *= t[col][col]
        _pivot(t, col, col)
    return int(det), tuple(tuple(int(x * det) for x in row[d:]) for row in t)


def _spec(lattice):
    if not isinstance(lattice, LatticeSpec):
        raise ConfigError(f"lattice must be a LatticeSpec, got {lattice!r}")
    return lattice


def _law(jumps):
    if not isinstance(jumps, JumpDistribution):
        raise ConfigError(f"jumps must be a JumpDistribution, got {jumps!r}")
    return jumps


def lattice_coordinates(lattice, vec):
    """Integer coordinates of vec in the lattice basis, or None; a bare int
    is a point of Z^1. Exact for integers of any size."""
    det, adj = _spec(lattice).frame
    vec = _point("point", vec, lattice.dimension)
    q, r = zip(*[divmod(sum(map(operator.mul, row, vec)), det) for row in adj])
    return None if any(r) else q


def in_lattice(lattice, vec):
    return lattice_coordinates(lattice, vec) is not None


# -- cycle-free: a grading solve, then Gordan's alternative ----------------------


def _grading(rows):
    """The u with u . a = 1 for every row a, its free coordinates 0, or None."""
    d, k = len(rows[0]), 0  # k: how many rows of t hold a pivot
    t = [[Fraction(c) for c in (*a, 1)] for a in rows]
    for c in range(d):
        if (r := next((i for i in range(k, len(t)) if t[i][c]), None)) is not None:
            t[k], t[r] = t[r], t[k]
            _pivot(t, k, c)
            k += 1
    if any(row[d] for row in t[k:]):
        return None
    u = [Fraction(0)] * d
    for row in t[:k]:  # the first nonzero entry of a pivot row is its pivot's 1
        u[row.index(1)] = row[d]
    return u


def _gordan(rows):
    """Gordan's alternative by a phase-one simplex with Bland's rule, over the
    d + 1 rows sum lam_i a_i = 0 and sum lam_i = 1, one artificial each.
    Returns (False, lam) for a zero convex combination lam, or (True, u)
    with u . a >= 1 for every row a, read off the optimal duals y: y . (a, 1)
    <= 0 for every a and y . (0, 1) > 0, so u = -y[:d] / y[d]."""
    n, m = len(rows), len(rows[0]) + 1
    t = [[Fraction((*a, 1)[i]) for a in rows] + [Fraction(int(i == k)) for k in range(m)]
         + [Fraction(int(i == m - 1))] for i in range(m)]
    # reduced costs of the phase-one objective, the sum of the artificials
    t.append([Fraction(n <= j < n + m) - sum(col) for j, col in enumerate(zip(*t))])
    basis = list(range(n, n + m))
    while (c := next((j for j in range(n) if t[m][j] < 0), None)) is not None:
        _, _, r = min((t[i][-1] / t[i][c], basis[i], i) for i in range(m) if t[i][c] > 0)
        basis[r] = c
        _pivot(t, r, c)
    if t[m][-1] == 0:
        at = dict(zip(basis, t))
        return False, [at[j][-1] if j in at else Fraction(0) for j in range(n)]
    y = [1 - x for x in t[m][n:n + m]]
    return True, [-x / y[-1] for x in y[:-1]]


def _half_space(rows):
    """Whether the rows fit an open half-space: (True, u) with u . a >= 1 for
    every row a, u the grading when one exists, or (False, lam) with lam a
    convex combination of the rows equal to zero. Both are checked here."""
    u = _grading(rows)
    holds, witness = (True, u) if u is not None else _gordan(rows)
    if holds:
        assert all(sum(map(operator.mul, a, witness)) >= 1 for a in rows)
    else:
        assert sum(witness) == 1 and min(witness) >= 0
        assert not any(sum(map(operator.mul, col, witness)) for col in zip(*rows))
    return holds, tuple(witness)


def check_cycle_free(jumps, lattice=None):
    """No zero convex combination of atoms, i.e. atoms fit a half-space.
    A lattice, if given, is checked to hold every atom, as the span checks do."""
    _atom_coordinates(jumps, lattice)
    holds, witness = jumps.half_space
    detail = ("direction with strictly positive dot product on every atom" if holds
              else "convex combination of atoms equal to zero")
    return ConditionCheck("cycle-free", holds, witness, detail)


# -- span conditions: tracked integer column reduction -------------------------


def _unimodular_span(vectors, d):
    """Whether the integer span of the vectors is all of Z^d.

    Returns (holds, certificate, detail). When it holds the certificate
    lists, for each basis vector e_i, integer coefficients over the input
    vectors summing to e_i; coefficients are substitution-checked. When it
    fails the certificate is the pivot diagonal reached by the reduction.
    """
    m = len(vectors)
    if m == 0:
        return False, (), "no vectors"
    cols = [list(v) for v in vectors]
    ucols = [[int(i == j) for i in range(m)] for j in range(m)]
    p = 0
    diag = []
    for i in range(d):
        while True:
            idxs = [j for j in range(p, m) if cols[j][i] != 0]
            if not idxs:
                return False, tuple(diag), f"no pivot for coordinate {i}"
            j0 = min(idxs, key=lambda j: abs(cols[j][i]))
            cols[p], cols[j0] = cols[j0], cols[p]
            ucols[p], ucols[j0] = ucols[j0], ucols[p]
            done = True
            for j in range(p + 1, m):
                if cols[j][i]:
                    q = cols[j][i] // cols[p][i]
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[p])]
                    ucols[j] = [a - q * b for a, b in zip(ucols[j], ucols[p])]
                    if cols[j][i]:
                        done = False
            if done:
                break
        if cols[p][i] < 0:
            cols[p] = [-a for a in cols[p]]
            ucols[p] = [-a for a in ucols[p]]
        diag.append(cols[p][i])
        p += 1
    if any(x != 1 for x in diag):
        return False, tuple(diag), "pivot diagonal is not all ones"

    cert = []
    for i in range(d):
        y = [0] * d
        for k in range(d):
            acc = int(i == k) - sum(cols[j][k] * y[j] for j in range(k))
            y[k] = acc  # unit diagonal
        combo = [sum(y[k] * ucols[k][j] for k in range(d)) for j in range(m)]
        check = [sum(combo[j] * vectors[j][t] for j in range(m)) for t in range(d)]
        assert check == [int(i == t) for t in range(d)]
        cert.append(tuple(combo))
    return True, tuple(cert), "integer combinations reaching each basis vector"


def _atom_coordinates(jumps, lattice):
    """The lattice, None read as Z^d, and the atoms' coordinates on it."""
    d = _law(jumps).dimension
    lattice = _spec(_default_lattice(d) if lattice is None else lattice)
    if d != lattice.dimension:
        raise BadDimension(f"jumps in dimension {d}, lattice in {lattice.dimension}")
    coords = [lattice_coordinates(lattice, a) for a in jumps.atoms]
    if None in coords:
        raise MalformedJump(f"atom {jumps.atoms[coords.index(None)]} is not a lattice point")
    return lattice, coords


def check_weak_irreducibility(jumps, lattice=None):
    """Integer span of the atoms equals the lattice."""
    _, coords = _atom_coordinates(jumps, lattice)
    holds, cert, detail = _unimodular_span(coords, jumps.dimension)
    return ConditionCheck("weak-irreducibility", holds, cert, detail)


def check_weak_aperiodicity(jumps, lattice=None):
    """Integer span of pairwise atom differences equals the lattice."""
    _, coords = _atom_coordinates(jumps, lattice)
    diffs = [tuple(a - b for a, b in zip(c, coords[0])) for c in coords[1:]]
    holds, cert, detail = _unimodular_span(diffs, jumps.dimension)
    return ConditionCheck("weak-aperiodicity", holds, cert, detail)


def check_model_conditions(jumps, lattice=None):
    """Combined report over the three conditions, witnesses by name."""
    cf = check_cycle_free(jumps, lattice)
    wi = check_weak_irreducibility(jumps, lattice)
    wa = check_weak_aperiodicity(jumps, lattice)
    return KernelConditionReport(
        cycle_free=cf.holds,
        weakly_irreducible=wi.holds,
        weakly_aperiodic=wa.holds,
        witnesses={c.condition: c.witness for c in (cf, wi, wa)},
    )


# -- window sampling -----------------------------------------------------------


def sample_lattice_cmt(lattice, jumps, box, seed, wrap=None, name="lattice-cmt"):
    """Sample one jump per lattice point of a box, independently.

    box is a sequence of inclusive (lo, hi) pairs, one per axis. wrap, if
    given, is a per-axis tuple of moduli or None; a wrapped axis a with
    modulus L identifies coordinates mod L, so it needs box [0, L-1] and
    L*e_a in the lattice (ConfigError otherwise). Jumps
    landing outside an unwrapped axis range become boundary exits. Interior
    vertices are those whose every potential jump stays in the box.

    Vertices are coordinate tuples, or plain ints in dimension one.
    """
    _check_steps("seed", seed, least=None)
    lattice, _ = _atom_coordinates(jumps, lattice)
    atoms_arr = _int64_rows(jumps)
    d = lattice.dimension
    if len(box) != d:
        raise BadDimension("box/jump dimension mismatch")

    wrap = tuple(wrap) if wrap is not None else (None,) * d
    if len(wrap) != d:
        raise ConfigError(f"wrap has {len(wrap)} entries for {d} axes")
    for a, m in enumerate(wrap):
        if m is not None and (tuple(box[a]) != (0, m - 1) or not in_lattice(
                lattice, tuple(m * (i == a) for i in range(d)))):
            raise ConfigError(f"wrap[{a}] = {m} needs box[{a}] = (0, {m - 1}) "
                              f"and {m}*e_{a} in the lattice")

    pts, succ, interior = _lattice_rows(lattice, atoms_arr, jumps.cdf, box, wrap, seed)
    return build_forest(
        pts,
        succ,
        interior=interior,
        dimension=d,
        metadata={"model": name, "seed": int(seed), "box": tuple(tuple(b) for b in box),
                  "wrap": wrap},
    )


def _lattice_rows(lattice, atoms_arr, cdf, box, wrap, seed):
    """The lattice points of box as rows, the row each one's sampled jump
    lands on (-1 off an unwrapped axis) and the interior mask. The grid
    arrays die here, before the window is built."""
    grid = box_grid(box)
    det, adj = lattice.frame  # lattice_coordinates row by row: det divides adj @ p
    mask = np.ones(len(grid), dtype=bool)
    for row in np.array(adj, dtype=np.int64):
        mask &= (grid @ row) % det == 0
    pts = grid[mask]
    if len(pts) == 0:
        raise EmptyWindow("box contains no lattice points")

    rng = rng_for(seed, _ROLE_LATTICE)
    targets = pts + atoms_arr[atom_index(cdf, rng.random(len(pts)))]

    in_box = np.ones(len(pts), dtype=bool)
    interior = np.ones(len(pts), dtype=bool)
    amin, amax = atoms_arr.min(axis=0), atoms_arr.max(axis=0)
    for a, (lo, hi) in enumerate(box):
        if wrap[a] is not None:
            targets[:, a] %= wrap[a]
        else:
            in_box &= (targets[:, a] >= lo) & (targets[:, a] <= hi)
            interior &= (pts[:, a] >= lo - amin[a]) & (pts[:, a] <= hi - amax[a])

    # the row of each site of the grid, read at the in-box targets
    rowmap = np.full(len(grid), -1, dtype=np.int64)
    rowmap[mask] = np.arange(len(pts))
    at = np.ravel_multi_index(tuple((targets - [lo for lo, _ in box]).T),
                              [hi - lo + 1 for lo, hi in box], mode="clip")
    return pts, np.where(in_box, rowmap[at], -1), interior
