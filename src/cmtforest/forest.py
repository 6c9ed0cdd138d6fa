"""Finite windows of oriented forests (graphs of point-maps).

A point-map assigns to each vertex at most one out-neighbor, its jump. The
window records which vertices had their sampled jump land outside the window
(boundary exits) and which vertices are interior, i.e. their jump is
guaranteed unaffected by truncation. All operations here are pure reads;
a ForestWindow is never mutated after construction and is safe to share
across workers.

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
    rev = {}
    for src, dst in forest.jump.items():
        rev.setdefault(dst, []).append(src)
    return {v: tuple(ps) for v, ps in rev.items()}


def _union_find_components(forest):
    parent = {v: v for v in forest.vertices}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for src, dst in forest.jump.items():
        a, b = find(src), find(dst)
        if a != b:
            parent[a] = b
    groups = {}
    for v in forest.vertices:
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def components(forest):
    """Partition the window into undirected components of the jump graph.

    Returns ComponentSummary objects ordered (and id-ed) by their minimal
    vertex, so ids are deterministic. A component of a partial functional
    graph contains at most one cycle; it contains exactly one iff every
    member has an in-window jump, which is also the condition for the
    FiniteCycle label (no arc of the component crosses the boundary).
    """
    groups = _union_find_components(forest)
    groups.sort(key=lambda g: min(g))
    out = []
    for cid, members in enumerate(groups):
        dangling = sum(1 for v in members if v not in forest.jump)
        cycle_count = 1 if dangling == 0 else 0
        label = FINITE_CYCLE if (cycle_count == 1 and dangling == 0) else TRUNCATED
        out.append(
            ComponentSummary(
                component_id=cid,
                size=len(members),
                cycle_count=cycle_count,
                boundary_arc_count=dangling,
                label=label,
                members=frozenset(members),
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
    rev = reverse_jump(forest)
    level = {v}
    for _ in range(n):
        nxt = set()
        for w in level:
            nxt.update(rev.get(w, ()))
        level = nxt
        if not level:
            break
    return frozenset(level)


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
    k = len(anc) - 1
    rev = reverse_jump(forest)

    level = {anc[-1]}
    for _ in range(k):
        level = {u for w in level for u in rev.get(w, ())}
    members = frozenset(level)

    comp = _component_of(forest, v)
    term_dist = _distance_to_termination(forest, rev, horizon)
    truncated = any(term_dist.get(w, horizon) < horizon for w in comp)
    return members, truncated


def _component_of(forest, v):
    rev = reverse_jump(forest)
    comp = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for w in frontier:
            nb = list(rev.get(w, ()))
            if w in forest.jump:
                nb.append(forest.jump[w])
            for u in nb:
                if u not in comp:
                    comp.add(u)
                    nxt.append(u)
        frontier = nxt
    return comp


def _distance_to_termination(forest, rev, cap):
    """Forward distance from each vertex to its line's in-window end."""
    dist = {v: 0 for v in forest.vertices if v not in forest.jump}
    frontier = list(dist)
    d = 0
    while frontier and d < cap:
        d += 1
        nxt = []
        for w in frontier:
            for u in rev.get(w, ()):
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def height(forest, component_id):
    """Height assignment of a cycle-free component.

    Anchored at the lexicographically minimal member with height 0;
    satisfies h(F(v)) = h(v) - 1 along every in-window jump.
    """
    comp = classify_component(forest, component_id)
    if comp.cycle_count:
        raise CyclicComponent(f"component {component_id} contains a cycle")
    anchor = min(comp.members)
    heights = component_heights(forest, reverse_jump(forest), anchor)
    return HeightAssignment(component_id=component_id, anchor=anchor, heights=heights)


def component_heights(forest, rev, anchor):
    """Heights over the component of anchor, which gets height 0, by a BFS
    along jumps (height - 1) and preimages under rev (height + 1)."""
    heights = {anchor: 0}
    frontier = [anchor]
    while frontier:
        nxt = []
        for w in frontier:
            h = heights[w]
            tgt = forest.jump.get(w)
            if tgt is not None and tgt not in heights:
                heights[tgt] = h - 1
                nxt.append(tgt)
            for u in rev.get(w, ()):
                if u not in heights:
                    heights[u] = h + 1
                    nxt.append(u)
        frontier = nxt
    return heights


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
