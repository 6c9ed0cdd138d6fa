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
        atoms = tuple(_point(f"atoms[{i}]", a) for i, a in enumerate(self.atoms))
        weights = tuple(Fraction(w) for w in self.weights)
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
        return _freeze(np.array(vecs, dtype=np.int64)), atom_cdf([diff[v] for v in vecs])


def _int64_rows(jumps):
    """The law's atom rows, or TooLarge naming an atom past int64."""
    if jumps.atom_rows.dtype == object:
        big = next(a for a in jumps.atoms if any(not -2**63 <= c < 2**63 for c in a))
        raise TooLarge(f"atom {big} is past int64")
    return jumps.atom_rows


def atom_cdf(weights):
    """Cumulative float weights with the last entry pinned to 1.0, read-only;
    draw an atom index as np.searchsorted(cdf, u, side="right") for uniform u."""
    cum = np.cumsum([float(w) for w in weights])
    cum[-1] = 1.0
    return _freeze(cum)


def uniform_jumps(atoms):
    n = len(atoms)
    return JumpDistribution(tuple(atoms), tuple(Fraction(1, n) for _ in range(n)))


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


def _det_and_adjugate(basis):
    """Exact determinant and adjugate of the basis matrix (columns given)."""
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


def _spec(lattice):
    if not isinstance(lattice, LatticeSpec):
        raise ConfigError(f"lattice must be a LatticeSpec, got {lattice!r}")
    return lattice


def lattice_coordinates(lattice, vec):
    """Integer coordinates of vec in the lattice basis, or None; a bare int
    is a point of Z^1. Exact for integers of any size."""
    det, adj = _spec(lattice).frame
    vec = _point("point", vec, lattice.dimension)
    q, r = zip(*[divmod(sum(map(operator.mul, row, vec)), det) for row in adj])
    return None if any(r) else q


def in_lattice(lattice, vec):
    return lattice_coordinates(lattice, vec) is not None


# -- cycle-free: exact half-space feasibility ---------------------------------


def _fourier_motzkin(rows):
    """Feasibility of {u : row . u >= 1}, with tracked certificates.

    Returns (True, u) where u is a rational direction verified to satisfy
    every inequality, or (False, lam) where lam is a verified convex
    combination of the rows equal to the zero vector.
    """
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


def check_cycle_free(jumps, lattice=None):
    """No zero convex combination of atoms, i.e. atoms fit a half-space.
    A lattice, if given, is checked to hold every atom, as the span checks do."""
    _atom_coordinates(jumps, lattice)
    holds, witness = _fourier_motzkin(jumps.atoms)
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
    lattice = _spec(_default_lattice(jumps.dimension) if lattice is None else lattice)
    if jumps.dimension != lattice.dimension:
        raise BadDimension(
            f"jumps in dimension {jumps.dimension}, lattice in {lattice.dimension}"
        )
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

    grid = box_grid(box)
    det, adj = lattice.frame  # lattice_coordinates row by row: det divides adj @ p
    num = grid @ np.array(adj, dtype=np.int64).T
    mask = (num % det == 0).all(axis=1)
    pts = grid[mask]
    if len(pts) == 0:
        raise EmptyWindow("box contains no lattice points")

    rng = rng_for(seed, _ROLE_LATTICE)
    idx = np.searchsorted(jumps.cdf, rng.random(len(pts)), side="right")
    targets = pts + atoms_arr[idx]

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
    return build_forest(
        pts,
        np.where(in_box, rowmap[at], -1),
        interior=interior,
        dimension=d,
        metadata={"model": name, "seed": int(seed), "box": tuple(tuple(b) for b in box),
                  "wrap": wrap},
    )
