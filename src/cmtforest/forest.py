"""Finite windows of oriented forests (graphs of point-maps).

A point-map assigns to each vertex at most one out-neighbor, its jump, so a
window is fixed by its jump map and has one order, its rows, which number
its vertices in sorted order. A ForestWindow is four row arrays: `coords`,
their coordinates as an N x d int array in lexicographic order (an N x 1
object column of the vertices if they are not integer points, such as
((x, y), t)), the successor array `succ` (the row of each in-window jump, or
-1), and the row masks `is_exit` (the sampled jump left the window) and
`is_interior` (the jump is guaranteed unaffected by truncation).
build_forest is the one constructor; it takes jump pairs in any order, or
the coordinates and successor rows from samplers that hold them as arrays.
Every array a window holds is read-only, and build_forest copies its
inputs. Components, heights, level sets and preimages are read from arrays
derived from the rows: `src`, the rows with an in-window jump, CSR
preimages (`pre`, `ptr`) in row order, pointer-doubling component labels
and depths (`label`, `depth`), and, built on first read, component ids
(`comp`) and CSR rows per component (`comp_rows`, `comp_ptr`). Vertex
objects are built on first read too: the tuple `verts` and the read-only
views `row` (its inverse), `vertices`, `jump`, `exits` and `interior`;
member frozensets only in `components` summaries. A window is never
mutated after construction and is safe to share across workers.

Vertex representation is uniform within a window: integer tuples (lattice
coordinates), plain ints (abstract vertices or point-ids), never mixed.
`coords`, `vertex` and `array_vertices` convert between vertices and
coordinates; an int vertex is a point with one coordinate.

The text dump format is one record per vertex after a single header line
``dim=<d> model=<name> seed=<u64>``:

    coords... -> coords...     in-window jump
    coords... -> EXIT          jump left the window
    coords...                  no jump sampled (e.g. top time slice)

The bare third form is a minimal extension of the two spec'd arrow forms;
without it, vertices that legitimately carry no jump could not round-trip.
"""

import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import BadDimension, CyclicComponent, MalformedJump, UnknownVertex, _check_steps

EXIT = "EXIT"

FINITE_CYCLE = "FiniteCycle"
TRUNCATED = "Truncated"

BUDGET_EXHAUSTED = "BudgetExhausted"
BOUNDARY_EXIT = "BoundaryExit"
CYCLE_DETECTED = "CycleDetected"
FIXED_POINT = "FixedPoint"


def coords(v):
    """The coordinates of a vertex: a tuple is its own, an int is one."""
    return v if isinstance(v, tuple) else (v,)


def vertex(c):
    """The vertex with coordinates c: a single coordinate is a plain int."""
    return c[0] if len(c) == 1 else tuple(c)


def array_vertices(a):
    """The vertices of the rows of an N x d int array or an object column."""
    return a[:, 0].tolist() if a.shape[1] == 1 else list(zip(*a.T.tolist()))


def box_grid(box):
    """The points of a box of inclusive (lo, hi) axes, as an N x d array in
    lexicographic order; N is 0 when an axis is empty."""
    if not len(box):
        raise BadDimension("box has no axes")
    axes = [np.arange(lo, hi + 1) for lo, hi in box]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(box))


class ForestWindow:
    """A window as rows (see the module docstring); made by build_forest."""

    def __init__(self, coords, succ, is_exit, is_interior, dimension, metadata):
        self.coords, self.succ = coords, succ
        self.is_exit, self.is_interior = is_exit, is_interior
        self.dimension, self.metadata = dimension, metadata
        # the preimages of row r are pre[ptr[r]:ptr[r + 1]], in row order
        self.src = np.flatnonzero(succ >= 0)
        n, dst = len(succ), succ[self.src]
        self.pre = self.src[np.argsort(dst, kind="stable")]
        self.ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=self.ptr[1:])
        self.label, self.depth = _line_labels(succ)
        for a in (coords, succ, is_exit, is_interior, self.src, self.pre, self.ptr, self.label,
                  self.depth):
            _freeze(a)

    def __contains__(self, v):
        try:
            return v in self._row
        except TypeError:  # an unhashable v, such as a list, is absent
            return False

    def __len__(self):
        return len(self.succ)

    @cached_property
    def verts(self):
        return tuple(array_vertices(self.coords))

    @cached_property
    def _row(self):
        return dict(zip(self.verts, range(len(self.succ))))

    @property
    def row(self):  # a fresh view, so a window that was read still pickles
        return MappingProxyType(self._row)

    def rows_of(self, vertices):
        """The rows of vertices, or UnknownVertex naming the first absent one."""
        return list(map(self._row_of, vertices))

    def _row_of(self, v):
        try:
            return self._row[v]
        except (KeyError, TypeError):  # an unhashable v, such as a list, is absent
            raise UnknownVertex(repr(v)) from None

    @cached_property
    def vertices(self):
        return frozenset(self.verts)

    @cached_property
    def jump(self):
        """The in-window jumps, keyed in row order."""
        pairs = zip(self.vertices_of(self.src), self.vertices_of(self.succ[self.src]))
        return MappingProxyType(dict(pairs))

    @cached_property
    def exits(self):
        return frozenset(self.vertices_of(np.flatnonzero(self.is_exit)))

    @cached_property
    def interior(self):
        return frozenset(self.vertices_of(np.flatnonzero(self.is_interior)))

    @cached_property
    def comp(self):
        """Each row's component id; ids follow the components' smallest rows."""
        labels, first, inverse = np.unique(self.label, return_index=True, return_inverse=True)
        rank = np.empty(len(labels), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(labels))
        return _freeze(rank[inverse])

    @cached_property
    def comp_rows(self):
        """The rows grouped by component, in row order within each."""
        return _freeze(np.argsort(self.comp, kind="stable"))

    @cached_property
    def comp_ptr(self):
        """Component c's rows are comp_rows[comp_ptr[c]:comp_ptr[c + 1]]."""
        return _freeze(np.concatenate(([0], np.cumsum(np.bincount(self.comp)))))

    def component_rows(self, c):
        return self.comp_rows[self.comp_ptr[c]:self.comp_ptr[c + 1]]

    def preimages(self, rows):
        """The rows whose jump lands in rows, grouped by target in src order."""
        lo, counts = self.ptr[rows], self.ptr[rows + 1] - self.ptr[rows]
        shift = np.repeat(lo - np.cumsum(counts) + counts, counts)
        return self.pre[np.arange(len(shift)) + shift]

    def descend(self, r, n):
        """Rows of D_n(v) for v in row r, the vertices whose n-th iterate is
        v. Preimages of distinct rows are distinct, so no row repeats."""
        rows = np.array([r])
        for _ in range(n):
            if not len(rows):
                break
            rows = self.preimages(rows)
        return rows

    def vertices_of(self, rows):
        return list(map(self.verts.__getitem__, rows.tolist()))


def _freeze(a):
    """a, made read-only: the window's cached facts are read from it."""
    a.flags.writeable = False
    return a


def _line_labels(succ):
    """(label, depth) of the partial functional graph succ by pointer
    doubling (Shiloach and Vishkin's hook-and-jump, on a functional graph).

    label[r] is the row of r's line's end, or the smallest row on the cycle
    its line wraps; depth[r] is r's distance to its line's end, and -1 on a
    component with a cycle. An end (succ -1) is made a fixed point. After k
    rounds, nxt is the 2**k-th iterate, low the smallest row among the
    first 2**k iterates and dist the number of real jumps among them. Once
    2**k >= n every line has reached its end or its cycle, so low[nxt] is
    the end or the cycle's smallest row, and dist is the depth on
    components without a cycle.
    """
    n = len(succ)
    rows = np.arange(n, dtype=np.int64)
    ends = succ < 0
    nxt = np.where(ends, rows, succ)
    low = rows
    dist = (~ends).astype(np.int64)
    for _ in range(n.bit_length()):
        low = np.minimum(low, low[nxt])
        dist = dist + dist[nxt]
        nxt = nxt[nxt]
    label = low[nxt]
    return label, np.where(ends[label], dist, -1)


@dataclass
class Trajectory:
    """An ancestral line: the forward orbit of a vertex under the jump map."""

    path: list
    termination: str
    cycle_entry: int = None


@dataclass
class ComponentSummary:
    component_id: int
    size: int
    cycle_count: int
    boundary_arc_count: int
    label: str
    members: frozenset


@dataclass
class HeightAssignment:
    component_id: int
    anchor: object
    heights: dict


def build_forest(vertices, jump_pairs, interior=None, dimension=1, metadata=None):
    """Assemble a ForestWindow from jump pairs or from successor rows.

    Pairs: a mapping or an iterable of (source, target) pairs in any order,
    read in one pass. A target equal to EXIT, or outside `vertices`, flags
    the source as a boundary exit; `interior` is an iterable of vertices.
    Raises UnknownVertex for a source outside the window or a list-spelled
    vertex in a pair or the interior, MalformedJump for a repeated source, a
    pair that is not (source, target) or pairs or an interior that are not
    iterable, and BadDimension for vertices that cannot be ordered or hashed.

    Rows: an int ndarray, the target row of each vertex, or -1 for a jump
    that left the window; every vertex has a jump. `vertices` is their sorted and distinct coordinates: an N x d
    int array, or N ints (int vertices). `interior` is a bool mask over the
    rows. Raises BadDimension or MalformedJump naming the fault.

    The interior is intersected with the vertices whose jump stayed in the
    window.
    """
    if isinstance(jump_pairs, np.ndarray):
        coords = _checked_coords(vertices)
        succ, interior = _checked_rows(jump_pairs, interior, len(coords))
        is_exit = succ < 0
    else:
        try:
            verts = list(dict.fromkeys(sorted(vertices)))  # sorted and distinct
        except TypeError as e:
            raise BadDimension(f"window vertices cannot be ordered or hashed: {e}") from None
        succ, is_exit, interior = _pair_rows(verts, jump_pairs, interior)
        try:
            coords = _checked_coords(verts)
        except BadDimension:  # not integer points: a column of the vertices
            coords = np.fromiter(verts, dtype=object, count=len(verts))[:, None]
    is_interior = succ >= 0
    if interior is not None:
        is_interior &= interior
    return ForestWindow(coords, succ, is_exit, is_interior, dimension, dict(metadata or {}))


def _checked_coords(vertices):
    """Rows-form coordinates as an int64 N x d array, or the named fault."""
    try:  # rows of unequal lengths raise ValueError too
        c = np.asarray(vertices)
        c = c[:, None] if c.ndim == 1 else c
        if c.ndim != 2 or not c.shape[1] or len(c) and c.dtype.kind != "i":
            raise ValueError(f"got shape {c.shape} of {c.dtype}")
    except ValueError as e:
        raise BadDimension(f"rows-form vertices need N ints or N x d ints: {e}") from None
    c = c.astype(np.int64)
    # each row must pass the last where they first differ (column 0 if they are equal)
    at = (np.arange(len(c) - 1), (c[1:] != c[:-1]).argmax(axis=1))
    if not (c[1:][at] > c[:-1][at]).all():
        raise MalformedJump("rows-form vertices are not sorted and distinct")
    return c


def _pair_rows(verts, jump_pairs, interior):
    """succ, the exit mask and the interior mask of a pair list over the
    sorted and distinct verts. A vertex spelled as a list is the caller's
    fault, never one outside the window."""
    n, get = len(verts), dict(zip(verts, range(len(verts)))).get
    succ = [-1] * n  # -2 marks an exit until the mask is split off
    try:
        pairs = iter(jump_pairs.items() if isinstance(jump_pairs, Mapping) else jump_pairs)
    except TypeError:
        raise MalformedJump(f"jump_pairs {jump_pairs!r} is not an iterable of pairs") from None
    for pair in pairs:
        try:
            s, t = pair
        except (TypeError, ValueError):
            raise MalformedJump(f"jump pair {pair!r} is not a (source, target) pair") from None
        try:
            r, t = get(s), get(t)
        except TypeError:
            raise UnknownVertex(f"jump pair {(s, t)!r} has an unhashable vertex") from None
        if r is None:
            raise UnknownVertex(f"jump source {s!r} not in window")
        if succ[r] != -1:
            raise MalformedJump(f"duplicate jump source {s!r}")
        succ[r] = -2 if t is None else t
    succ = np.array(succ, dtype=np.int64)
    is_exit = succ == -2
    succ[is_exit] = -1
    if interior is not None:
        try:
            items = iter(interior)
        except TypeError:
            raise MalformedJump(f"interior {interior!r} is not an iterable of vertices") from None
        listed = np.zeros(n + 1, dtype=bool)
        rows = []
        for v in items:
            try:
                rows.append(get(v, n))
            except TypeError:
                raise UnknownVertex(f"interior vertex {v!r} is unhashable") from None
        listed[rows] = True
        interior = listed[:n]
    return succ, is_exit, interior


def _checked_rows(succ, interior, n):
    """succ as int64 rows, and interior, or MalformedJump naming the fault."""
    if succ.dtype.kind not in "iu" or succ.shape != (n,):
        raise MalformedJump(f"succ must be {n} int rows, one per vertex; "
                            f"got shape {succ.shape} of {succ.dtype}")
    if n and (succ.min() < -1 or succ.max() >= n):
        raise MalformedJump(f"succ has a row outside [-1, {n})")
    if interior is not None and not (isinstance(interior, np.ndarray)
                                     and interior.dtype == bool and interior.shape == (n,)):
        raise MalformedJump(f"interior must be a bool mask over the {n} rows")
    return succ.astype(np.int64), interior


def ancestral_line(forest, v, max_steps):
    """Follow the jump map from v for at most max_steps jumps."""
    _check_steps("max_steps", max_steps)
    (r,) = forest.rows_of([v])
    path, seen = [r], {r: 0}
    termination = entry = None
    while termination is None:
        nxt = int(forest.succ[r])
        if nxt < 0:
            termination = BOUNDARY_EXIT
        elif len(path) > max_steps:
            termination = BUDGET_EXHAUSTED
        elif nxt == r:
            termination = FIXED_POINT
        elif nxt in seen:
            termination, entry = CYCLE_DETECTED, seen[nxt]
        else:
            seen[nxt] = len(path)
            path.append(nxt)
            r = nxt
    return Trajectory([forest.verts[p] for p in path], termination, entry)


def reverse_jump(forest):
    """Map each vertex to the tuple of its in-window preimages, in row order;
    keyed in order of first appearance as a target."""
    pre, ptr = forest.vertices_of(forest.pre), forest.ptr.tolist()
    return {forest.verts[t]: tuple(pre[ptr[t]:ptr[t + 1]])
            for t in dict.fromkeys(forest.succ[forest.src].tolist())}


def _summary(cid, members, dangling):
    """Component cid's summary from its members and its count of arcs that
    leave the window."""
    cycle_count = 1 if dangling == 0 else 0
    return ComponentSummary(
        component_id=cid,
        size=len(members),
        cycle_count=cycle_count,
        boundary_arc_count=dangling,
        label=FINITE_CYCLE if cycle_count else TRUNCATED,
        members=frozenset(members),
    )


def components(forest):
    """Partition the window into undirected components of the jump graph.

    Returns ComponentSummary objects ordered (and id-ed) by their minimal
    vertex, so ids are deterministic. A component of a partial functional
    graph contains at most one cycle; it contains exactly one iff every
    member has an in-window jump, which is also the condition for the
    FiniteCycle label (no arc of the component crosses the boundary).
    """
    verts, ptr = forest.vertices_of(forest.comp_rows), forest.comp_ptr.tolist()
    dangling = np.bincount(forest.comp[forest.succ < 0], minlength=len(ptr) - 1).tolist()
    return [_summary(cid, verts[a:b], dangling[cid])
            for cid, (a, b) in enumerate(zip(ptr, ptr[1:]))]


def _component_id(forest, component_id):
    """component_id as an int, or UnknownVertex if the window has no such
    component."""
    cid = operator.index(component_id)  # numpy reads a bool as a mask
    if not 0 <= cid < len(forest.comp_ptr) - 1:
        raise UnknownVertex(f"no component {component_id}")
    return cid


def classify_component(forest, component_id):
    """Return the summary (with label) for one component."""
    cid = _component_id(forest, component_id)
    rows = forest.component_rows(cid)
    return _summary(cid, forest.vertices_of(rows), int((forest.succ[rows] < 0).sum()))


def descendants(forest, v, n):
    """D_n(v): vertices u with n-th iterate equal to v, all steps in-window."""
    _check_steps("n", n)
    (r,) = forest.rows_of([v])
    return frozenset(forest.vertices_of(forest.descend(r, n)))


def level_set(forest, v, horizon):
    """Vertices whose ancestral line meets v's after equal step counts.

    Only merges witnessed inside the window within `horizon` steps count.
    Returns (members, truncated). The flag is set when any line in v's
    component ends (no further in-window jump) in fewer than `horizon`
    steps, since such a line's merges beyond the boundary are unobserved.
    Lines that wrap a cycle never end, so fully cyclic components are
    never flagged.
    """
    _check_steps("horizon", horizon)
    (r,) = forest.rows_of([v])
    top, steps = r, 0
    while steps < horizon and forest.succ[top] >= 0:
        top = int(forest.succ[top])
        steps += 1
    members = frozenset(forest.vertices_of(forest.descend(top, steps)))

    # the end of v's line, if it has one, is a member of v's component at
    # depth 0, so the component is flagged for every positive horizon
    truncated = forest.depth[r] >= 0 and horizon > 0
    return members, bool(truncated)


def height(forest, component_id):
    """Height assignment of a cycle-free component.

    Anchored at the lexicographically minimal member, the component's first
    row, with height 0; satisfies h(F(v)) = h(v) - 1 along every in-window
    jump.
    """
    cid = _component_id(forest, component_id)
    first = forest.comp_rows[forest.comp_ptr[cid]]
    if forest.depth[first] < 0:
        raise CyclicComponent(f"component {component_id} contains a cycle")
    return HeightAssignment(cid, forest.verts[first], _heights_from(forest, first))


def component_heights(forest, anchor):
    """Heights over the cycle-free component of anchor, which gets height
    0: h(v) = depth(v) - depth(anchor), so h(F(v)) = h(v) - 1."""
    (r,) = forest.rows_of([anchor])
    if forest.depth[r] < 0:
        raise CyclicComponent(f"the component of {anchor!r} contains a cycle")
    return _heights_from(forest, r)


def _heights_from(forest, r):
    """Heights over the cycle-free component of row r, which gets height 0."""
    rows = forest.component_rows(forest.comp[r])
    return dict(zip(forest.vertices_of(rows), (forest.depth[rows] - forest.depth[r]).tolist()))


def _fmt_vertex(v):
    return " ".join(map(str, coords(v)))


def dump_forest(forest):
    """Serialize to the one-record-per-vertex text format."""
    meta = forest.metadata
    lines = [
        "dim=%d model=%s seed=%s"
        % (forest.dimension, meta.get("model", "unknown"), meta.get("seed", 0))
    ]
    text = list(map(_fmt_vertex, forest.verts))
    for v, t, out in zip(text, forest.succ.tolist(), forest.is_exit.tolist()):
        lines.append(f"{v} -> {text[t]}" if t >= 0 else f"{v} -> EXIT" if out else v)
    return "\n".join(lines) + "\n"


def load_forest(text):
    """Parse dump_forest output back into a ForestWindow.

    Jumps, exits and the header fields round-trip; the interior set is not
    part of the format and defaults to the in-window-jump vertices. An
    unparsable header or record raises MalformedJump naming the line.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]

    def parse(tokens):
        if not tokens:
            raise ValueError("no coordinates")
        return vertex(tuple(map(int, tokens)))

    try:
        header = dict(part.split("=", 1) for part in lines[0].split())
        dim, meta = int(header["dim"]), {"model": header["model"], "seed": int(header["seed"])}
    except (IndexError, KeyError, ValueError) as e:
        raise MalformedJump(f"bad header {lines[0] if lines else ''!r}: {e!r}") from None
    vertices = []
    pairs = []
    for ln in lines[1:]:
        try:
            left, *right = ln.split("->")
            src = parse(left.split())
            if right:
                (right,) = right
                pairs.append((src, EXIT if right.strip() == EXIT else parse(right.split())))
        except ValueError as e:
            raise MalformedJump(f"bad record {ln!r}: {e}") from None
        vertices.append(src)
    return build_forest(vertices, pairs, dimension=dim, metadata=meta)
