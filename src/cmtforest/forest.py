"""Finite windows of oriented forests (graphs of point-maps).

A point-map assigns to each vertex at most one out-neighbor, its jump. The
window records which vertices had their sampled jump land outside the window
(boundary exits) and which vertices are interior, i.e. their jump is
guaranteed unaffected by truncation. All operations here are pure reads;
a ForestWindow is never mutated after construction and is safe to share
across workers. Components, heights, level sets and preimages are read
from an array form of the window (sorted rows, successor array, CSR
preimages, pointer-doubling component labels and depths), built on first
use and kept on the window.

Vertex representation is uniform within a window: integer tuples (lattice
coordinates), plain ints (abstract vertices or point-ids), never mixed.

The text dump format is one record per vertex after a single header line
``dim=<d> model=<name> seed=<u64>``:

    coords... -> coords...     in-window jump
    coords... -> EXIT          jump left the window
    coords...                  no jump sampled (e.g. top time slice)

The bare third form is a minimal extension of the two spec'd arrow forms;
without it, vertices that legitimately carry no jump could not round-trip.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import CyclicComponent, MalformedJump, UnknownVertex

EXIT = "EXIT"

FINITE_CYCLE = "FiniteCycle"
TRUNCATED = "Truncated"

BUDGET_EXHAUSTED = "BudgetExhausted"
BOUNDARY_EXIT = "BoundaryExit"
CYCLE_DETECTED = "CycleDetected"
FIXED_POINT = "FixedPoint"


@dataclass
class ForestWindow:
    vertices: frozenset
    jump: dict
    exits: frozenset
    interior: frozenset
    dimension: int
    metadata: dict = field(default_factory=dict)

    def __contains__(self, v):
        return v in self.vertices

    def __len__(self):
        return len(self.vertices)

    @cached_property
    def _core(self):
        return _Core(self)


class _Core:
    """Array form of a window, built on first use and kept on the window.

    Rows number the vertices in sorted order. succ[r] is the row of r's
    in-window jump, or -1. The preimages of row r are
    pre[ptr[r]:ptr[r + 1]], in the window's jump order. label[r] names r's
    component: the row of its line's end, or the smallest row on the cycle
    its line wraps. depth[r] is r's distance to its line's end, and -1 on
    a component with a cycle.
    """

    def __init__(self, forest):
        # samplers add jumps in vertex order, which sorted() takes as one run
        self.verts = sorted(chain(forest.jump, forest.vertices.difference(forest.jump)))
        self.row = dict(zip(self.verts, range(len(self.verts))))
        n, m = len(self.verts), len(forest.jump)
        src = np.fromiter(map(self.row.__getitem__, forest.jump), np.int64, m)
        dst = np.fromiter(map(self.row.__getitem__, forest.jump.values()), np.int64, m)
        self.succ = np.full(n, -1, dtype=np.int64)
        self.succ[src] = dst
        self._dst = dst
        self.pre = src[np.argsort(dst, kind="stable")]
        self.ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=self.ptr[1:])
        self.label, self.depth = _line_labels(self.succ)

    @cached_property
    def rev(self):
        """reverse_jump's map, keyed in order of first appearance as a target."""
        verts, ptr = self.verts, self.ptr.tolist()
        pre = self.vertices_of(self.pre)
        rows, first = np.unique(self._dst, return_index=True)
        return {verts[t]: tuple(pre[ptr[t]:ptr[t + 1]])
                for t in rows[np.argsort(first)].tolist()}

    def preimages(self, rows):
        """The rows whose jump lands in rows, grouped by target in jump order."""
        lo, counts = self.ptr[rows], self.ptr[rows + 1] - self.ptr[rows]
        shift = np.repeat(lo - np.cumsum(counts) + counts, counts)
        return self.pre[np.arange(len(shift)) + shift]

    def descend(self, v, n):
        """Rows of D_n(v), the vertices whose n-th iterate is v. Preimages of
        distinct rows are distinct, so no row repeats."""
        rows = np.array([self.row[v]])
        for _ in range(n):
            if not len(rows):
                break
            rows = self.preimages(rows)
        return rows

    def vertices_of(self, rows):
        return list(map(self.verts.__getitem__, rows.tolist()))

    @cached_property
    def comp(self):
        """Each row's component id; ids follow the components' smallest rows."""
        labels, first, inverse = np.unique(self.label, return_index=True, return_inverse=True)
        rank = np.empty(len(labels), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(labels))
        return rank[inverse]

    @cached_property
    def members(self):
        """(rows, vertices) of each component, both in row order."""
        order = np.argsort(self.comp, kind="stable")
        bounds = np.cumsum(np.bincount(self.comp)).tolist()
        verts = self.vertices_of(order)
        return [(order[a:b], frozenset(verts[a:b])) for a, b in zip([0] + bounds, bounds)]


def _line_labels(succ):
    """(label, depth) of the partial functional graph succ by pointer
    doubling (Shiloach and Vishkin's hook-and-jump, on a functional graph).

    An end (succ -1) is made a fixed point. After k rounds, nxt is the
    2**k-th iterate, low the smallest row among the first 2**k iterates and
    dist the number of real jumps among them. Once 2**k >= n every line has
    reached its end or its cycle, so low[nxt] is the end or the cycle's
    smallest row, and dist is the depth on components without a cycle.
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
    statistics: dict = field(default_factory=dict)


@dataclass
class HeightAssignment:
    component_id: int
    anchor: object
    heights: dict


def build_forest(vertices, jump_pairs, interior=None, dimension=1, metadata=None):
    """Assemble a ForestWindow from explicit jump pairs.

    jump_pairs may be a dict or an iterable of (source, target) pairs. A
    target equal to the EXIT sentinel, or any target outside `vertices`,
    flags the source as a boundary exit. `interior` is a predicate or an
    iterable of vertices; it is intersected with the set of vertices whose
    jump stayed in-window, which keeps the type invariant even for sloppy
    callers.
    """
    vset = frozenset(vertices)
    pairs = jump_pairs.items() if isinstance(jump_pairs, dict) else jump_pairs
    jump = {}
    exits = set()
    seen = set()
    for src, dst in pairs:
        if src in seen:
            raise MalformedJump(f"duplicate jump source {src!r}")
        seen.add(src)
        if src not in vset:
            raise UnknownVertex(f"jump source {src!r} not in window")
        if dst is EXIT or dst == EXIT or dst not in vset:
            exits.add(src)
        else:
            jump[src] = dst
    if interior is None:
        interior_set = frozenset(jump)
    elif callable(interior):
        interior_set = frozenset(v for v in jump if interior(v))
    else:
        interior_set = frozenset(interior) & frozenset(jump)
    return ForestWindow(
        vertices=vset,
        jump=jump,
        exits=frozenset(exits),
        interior=interior_set,
        dimension=dimension,
        metadata=dict(metadata or {}),
    )


def ancestral_line(forest, v, max_steps):
    """Follow the jump map from v for at most max_steps jumps."""
    if v not in forest.vertices:
        raise UnknownVertex(repr(v))
    path = [v]
    seen = {v: 0}
    cur = v
    steps = 0
    while True:
        if cur not in forest.jump:
            return Trajectory(path, BOUNDARY_EXIT)
        if steps == max_steps:
            return Trajectory(path, BUDGET_EXHAUSTED)
        nxt = forest.jump[cur]
        if nxt == cur:
            return Trajectory(path, FIXED_POINT)
        if nxt in seen:
            return Trajectory(path, CYCLE_DETECTED, cycle_entry=seen[nxt])
        path.append(nxt)
        seen[nxt] = len(path) - 1
        cur = nxt
        steps += 1


def reverse_jump(forest):
    """Map each vertex to the tuple of its in-window preimages."""
    return dict(forest._core.rev)


def components(forest):
    """Partition the window into undirected components of the jump graph.

    Returns ComponentSummary objects ordered (and id-ed) by their minimal
    vertex, so ids are deterministic. A component of a partial functional
    graph contains at most one cycle; it contains exactly one iff every
    member has an in-window jump, which is also the condition for the
    FiniteCycle label (no arc of the component crosses the boundary).
    """
    core = forest._core
    dangling = np.bincount(core.comp[core.succ < 0], minlength=len(core.members)).tolist()
    out = []
    for cid, (_, members) in enumerate(core.members):
        cycle_count = 1 if dangling[cid] == 0 else 0
        out.append(
            ComponentSummary(
                component_id=cid,
                size=len(members),
                cycle_count=cycle_count,
                boundary_arc_count=dangling[cid],
                label=FINITE_CYCLE if cycle_count else TRUNCATED,
                members=members,
            )
        )
    return out


def classify_component(forest, component_id):
    """Return the summary (with label) for one component."""
    comps = components(forest)
    if not 0 <= component_id < len(comps):
        raise UnknownVertex(f"no component {component_id}")
    return comps[component_id]


def descendants(forest, v, n):
    """D_n(v): vertices u with n-th iterate equal to v, all steps in-window."""
    if v not in forest.vertices:
        raise UnknownVertex(repr(v))
    core = forest._core
    return frozenset(core.vertices_of(core.descend(v, n)))


def level_set(forest, v, horizon):
    """Vertices whose ancestral line meets v's after equal step counts.

    Only merges witnessed inside the window within `horizon` steps count.
    Returns (members, truncated). The flag is set when any line in v's
    component ends (no further in-window jump) in fewer than `horizon`
    steps, since such a line's merges beyond the boundary are unobserved.
    Lines that wrap a cycle never end, so fully cyclic components are
    never flagged.
    """
    if v not in forest.vertices:
        raise UnknownVertex(repr(v))
    anc = [v]
    cur = v
    for _ in range(horizon):
        if cur not in forest.jump:
            break
        cur = forest.jump[cur]
        anc.append(cur)
    core = forest._core
    members = frozenset(core.vertices_of(core.descend(anc[-1], len(anc) - 1)))

    # the end of v's line, if it has one, is a member of v's component at
    # depth 0, so the component is flagged for every positive horizon
    truncated = core.depth[core.row[v]] >= 0 and horizon > 0
    return members, bool(truncated)


def height(forest, component_id):
    """Height assignment of a cycle-free component.

    Anchored at the lexicographically minimal member with height 0;
    satisfies h(F(v)) = h(v) - 1 along every in-window jump.
    """
    comp = classify_component(forest, component_id)
    if comp.cycle_count:
        raise CyclicComponent(f"component {component_id} contains a cycle")
    anchor = min(comp.members)
    heights = component_heights(forest, anchor)
    return HeightAssignment(component_id=component_id, anchor=anchor, heights=heights)


def component_heights(forest, anchor):
    """Heights over the cycle-free component of anchor, which gets height
    0: h(v) = depth(v) - depth(anchor), so h(F(v)) = h(v) - 1."""
    core = forest._core
    r = core.row.get(anchor)
    if r is None:
        raise UnknownVertex(repr(anchor))
    if core.depth[r] < 0:
        raise CyclicComponent(f"the component of {anchor!r} contains a cycle")
    rows, _ = core.members[core.comp[r]]
    return dict(zip(core.vertices_of(rows), (core.depth[rows] - core.depth[r]).tolist()))


def _fmt_vertex(v):
    if isinstance(v, tuple):
        return " ".join(str(c) for c in v)
    return str(v)


def _parse_vertex(tokens):
    if len(tokens) == 1:
        return int(tokens[0])
    return tuple(int(t) for t in tokens)


def dump_forest(forest):
    """Serialize to the one-record-per-vertex text format."""
    meta = forest.metadata
    lines = [
        "dim=%d model=%s seed=%s"
        % (forest.dimension, meta.get("model", "unknown"), meta.get("seed", 0))
    ]
    for v in sorted(forest.vertices):
        if v in forest.jump:
            lines.append(f"{_fmt_vertex(v)} -> {_fmt_vertex(forest.jump[v])}")
        elif v in forest.exits:
            lines.append(f"{_fmt_vertex(v)} -> EXIT")
        else:
            lines.append(_fmt_vertex(v))
    return "\n".join(lines) + "\n"


def load_forest(text):
    """Parse dump_forest output back into a ForestWindow.

    Jumps, exits and the header fields round-trip; the interior set is not
    part of the format and defaults to the in-window-jump vertices.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = dict(part.split("=", 1) for part in lines[0].split())
    dim = int(header["dim"])
    vertices = []
    pairs = []
    for ln in lines[1:]:
        if "->" in ln:
            left, right = ln.split("->")
            src = _parse_vertex(left.split())
            vertices.append(src)
            right = right.strip()
            if right == EXIT:
                pairs.append((src, EXIT))
            else:
                pairs.append((src, _parse_vertex(right.split())))
        else:
            vertices.append(_parse_vertex(ln.split()))
    return build_forest(
        vertices,
        pairs,
        dimension=dim,
        metadata={"model": header["model"], "seed": int(header["seed"])},
    )
