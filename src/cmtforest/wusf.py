"""Uniform spanning trees by loop-erased walks, wired-boundary windows,
and the exact small-graph coupling feasibility check.

Trees are oriented parent maps. Sampling works on multigraphs (parallel
edges weight the walk, which the wired contraction needs); self-loops
are rejected for tree sampling since a loop step can never extend a
spanning tree.

Walks step on the rows of the graph's frame and keep only the last exit of
every vertex they leave. Following the last exits from the start reads the
chronological loop-erasure of the walk (Wilson's RandomTreeWithRoot), so a
walk keeps no path while it runs.
"""

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, product, repeat

import numpy as np

from .errors import (
    BadGraph,
    BadPath,
    BudgetExhausted,
    ConfigError,
    NotConnected,
    TooLarge,
    Unconditionable,
    UnknownVertex,
    _check_not_bool,
    _check_steps,
)
from .forest import _fmt_vertex, _line_labels
from .graphs import FiniteGraph, _check_graph, lattice_steps
from .seeds import rng_for

_ROLE_WILSON = 0xE1
_ROLE_LERW = 0xE2

_FIRST_CHUNKS = tuple(2 << i for i in range(10))  # 64-bit outputs per chunk: 2, 4, ..., 1024

_SUBSET_CAP = 10**6  # edge subsets spanning_trees may try

BOUNDARY = "WIRED"


@dataclass(frozen=True)
class OrientedTreeOrForest:
    parent: dict
    roots: frozenset

    def __post_init__(self):
        parent = dict(self.parent)
        roots = frozenset(self.roots)
        if set(parent) & roots:
            raise BadGraph("a root cannot also have a parent")
        for p in parent.values():
            try:
                known = p in parent or p in roots
            except TypeError:  # an unhashable parent is no vertex
                known = False
            if not known:
                raise BadGraph(f"parent chain leaves the structure at {p!r}")
        row = dict(zip(parent, range(len(parent))))  # place in the map; a root's is -1
        succ = np.array([row.get(p, -1) for p in parent.values()], dtype=np.int64)
        if (_line_labels(succ)[1] < 0).any():
            raise BadGraph("parent map has a cycle")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "roots", roots)

    @classmethod
    def _built(cls, parent, roots):
        """A tree or forest the library built by construction, kept as given
        and not re-walked: every chain of parent (a dict) reaches roots (a
        frozenset)."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "parent", parent)
        object.__setattr__(tree, "roots", roots)
        return tree

    def vertices(self):
        return set(self.parent) | set(self.roots)

    def __len__(self):
        return len(self.parent) + len(self.roots)


def dump_tree(tree):
    """CSV dump, one `vertex,parent` row per vertex; roots say ROOT."""
    lines = ["vertex,parent"]
    for v in sorted(tree.vertices(), key=repr):
        parent = "ROOT" if v in tree.roots else _fmt_vertex(tree.parent[v])
        lines.append(f"{_fmt_vertex(v)},{parent}")
    return "\n".join(lines) + "\n"


# -- loop-erased walks -----------------------------------------------------------


def _words(rng):
    """The 32-bit words that `rng.integers` reads, drawn in bulk. PCG64
    hands out the low half of each 64-bit output and then the high half, so
    on a fresh generator (every sampler here makes its own) the halves of
    `random_raw`, read as little-endian pairs of 32-bit words, are that
    stream. A K4 tree reads two or three words, so chunks start at four
    words and double up to 4096. The words come from chained list
    iterators, so reading one runs no Python frame."""
    raw = rng.bit_generator.random_raw

    def chunk(m):
        return raw(m).astype("<u8", copy=False).view("<u4").tolist()

    return chain.from_iterable(map(chunk, chain(_FIRST_CHUNKS, repeat(2048))))


def _loop_erased_walk(nbrs, start, stop, nxt, words, budget):
    """Walk the rows nbrs from row start until a row in stop, and return
    that row. Each step goes to neighbour `rng.integers(deg)`, decoded from
    `words` by Lemire's rule as numpy does: `(w * deg) >> 32`, reading
    another word while the low half of `w * deg` is below
    `(2**32 - deg) % deg`. A degree-1 row reads no word.

    The walk keeps only the last exit of every row it leaves, `nxt[r]`.
    Following nxt from start to the returned row reads the chronological
    loop-erasure of the walk: a loop is closed by a later exit from the
    row it returns to, and that exit overwrites the one into the loop
    (Wilson's RandomTreeWithRoot)."""
    cur = start
    steps = 0
    while cur not in stop:
        if budget is not None and steps >= budget:
            raise BudgetExhausted(f"no hit within {budget} steps")
        ns = nbrs[cur]
        deg = len(ns)
        if deg == 1:
            nxt[cur] = cur = ns[0]
        else:
            m = next(words) * deg
            if m & 0xFFFFFFFF < deg:
                threshold = (0x100000000 - deg) % deg
                while m & 0xFFFFFFFF < threshold:
                    m = next(words) * deg
            nxt[cur] = cur = ns[m >> 32]
        steps += 1
    return cur


def _check_vertex(graph, name, v):
    """UnknownVertex for a v not in graph, unhashable ones too; ConfigError
    for a bool, which True == 1 would read as vertex 1."""
    _check_not_bool(name, v, "a vertex")
    try:
        known = v in graph.adjacency
    except TypeError:  # an unhashable v, such as a list, is absent
        known = False
    if not known:
        raise UnknownVertex(repr(v))


def _vertex_list(name, vs):
    """vs as a list, or ConfigError naming an argument that is not iterable."""
    try:
        return list(vs)
    except TypeError:
        raise ConfigError(f"{name} must be an iterable of vertices, got {vs!r}") from None


def lerw(graph, start, stop_set, seed, budget=None):
    """Chronological loop-erasure of a random walk run until stop_set, or
    BudgetExhausted after budget steps (no limit when budget is None). The
    work is proportional to the walk: the last exits are a dict over the
    rows it visits."""
    _check_graph("graph", graph)
    _check_steps("seed", seed, least=None)
    if budget is not None:
        _check_steps("budget", budget)
    stop = _vertex_list("stop_set", stop_set)  # a set would keep one of 1 and True
    _check_vertex(graph, "start", start)
    for v in stop:
        _check_vertex(graph, "stop_set entry", v)
    if not stop:
        raise ConfigError("empty stop set")
    component = graph.component
    if all(component[v] != component[start] for v in stop):
        raise NotConnected("stop set unreachable from start")
    verts, row, nbrs = graph.frame
    words = _words(rng_for(seed, _ROLE_LERW))
    cur = row[start]
    nxt = {}
    end = _loop_erased_walk(nbrs, cur, {row[v] for v in stop}, nxt, words, budget)
    path = [start]
    while cur != end:
        cur = nxt[cur]
        path.append(verts[cur])
    return path


# -- Wilson's algorithm ------------------------------------------------------------


def _reject_self_loops(graph):
    if graph.self_loops:
        raise BadGraph(f"self-loop at {graph.self_loops[0]!r}")


def _fill_tree(graph, tree, parent, rng):
    """Wilson's algorithm from the vertices of tree: a loop-erased walk from
    each row outside it, in vertex order, joins the tree by its path, whose
    arcs go into parent in path order."""
    verts, row, nbrs = graph.frame
    in_tree = {row[v] for v in tree}
    nxt = [0] * len(verts)
    words = _words(rng)
    for u in range(len(verts)):
        if u in in_tree:
            continue
        _loop_erased_walk(nbrs, u, in_tree, nxt, words, None)
        while u not in in_tree:
            in_tree.add(u)
            parent[verts[u]] = verts[nxt[u]]
            u = nxt[u]


def wilson_ust(graph, root, seed):
    """Uniform spanning tree oriented toward root."""
    _check_graph("graph", graph)
    _check_steps("seed", seed, least=None)
    _reject_self_loops(graph)
    _check_vertex(graph, "root", root)
    if not graph.is_connected():
        raise NotConnected("graph is not connected")
    rng = rng_for(seed, _ROLE_WILSON)
    parent = {}
    _fill_tree(graph, [root], parent, rng)
    return OrientedTreeOrForest._built(parent, frozenset([root]))


def conditional_wilson(graph, path, seed):
    """Wilson's algorithm preseeded with a simple path; the path's last
    vertex is the root and the output always contains the path."""
    _check_graph("graph", graph)
    _check_steps("seed", seed, least=None)
    _reject_self_loops(graph)
    path = _vertex_list("path", path or ())
    for i, v in enumerate(path):  # before the simple test, where True == 1
        _check_vertex(graph, f"path[{i}]", v)
    if not path or len(set(path)) != len(path):
        raise BadPath("initial path must be nonempty and simple")
    for a, b in zip(path, path[1:]):
        if b not in graph.neighbors(a):
            raise BadPath(f"{a!r} -> {b!r} is not an edge")
    if not graph.is_connected():
        raise NotConnected("graph is not connected")
    rng = rng_for(seed, _ROLE_WILSON)
    parent = dict(zip(path, path[1:]))
    _fill_tree(graph, path, parent, rng)
    return OrientedTreeOrForest._built(parent, frozenset([path[-1]]))


# -- wired windows -------------------------------------------------------------------


def wired_ball(radius, dimension):
    """Graph-distance ball of Z^d with its complement contracted to the
    single vertex BOUNDARY; edges to the outside keep their multiplicity."""
    _check_steps("radius", radius)
    _check_steps("dimension", dimension, least=1)
    ball = {
        p
        for p in product(range(-radius, radius + 1), repeat=dimension)
        if sum(map(abs, p)) <= radius
    }
    adj = {v: [w if w in ball else BOUNDARY for w in lattice_steps(v)] for v in sorted(ball)}
    # the boundary lists each ball vertex once per edge that leaves the ball
    adj[BOUNDARY] = [v for v, ns in adj.items() for w in ns if w == BOUNDARY]
    return FiniteGraph(adj), BOUNDARY


def wusf_window(radius, seed, dimension=3):
    """Wired spanning forest of a lattice ball: sample the spanning tree
    of the contracted graph rooted at the boundary, then drop the
    boundary vertex. Every ancestral line ends at a vertex whose parent
    was the boundary; those vertices are the returned roots. On a
    recurrent base (dimension <= 2) this is the connected regime and the
    window is a single tree wired to the boundary."""
    graph, z = wired_ball(radius, dimension)
    tree = wilson_ust(graph, z, seed)
    parent = {v: p for v, p in tree.parent.items() if p != z}
    exits = frozenset(v for v, p in tree.parent.items() if p == z)
    return OrientedTreeOrForest._built(parent, exits)


# -- exact coupling feasibility --------------------------------------------------------


def _edge_set(graph):
    """The edges of a simple graph in a fixed order. A self-loop is in no tree
    and is left out; a parallel pair would weight the trees, so it is refused."""
    edges = set()
    for v in graph.vertices:
        for u, k in Counter(graph.neighbors(v)).items():
            if u != v:
                if k > 1:
                    raise BadGraph(f"parallel edges between {v!r} and {u!r}; "
                                   "spanning trees are enumerated on simple graphs only")
                edges.add(frozenset((u, v)))
    return sorted(edges, key=lambda e: sorted(map(repr, e)))


def _edge_arg(graph, name, entries):
    """The edges an argument lists, each a frozenset; ConfigError names the
    argument and its first entry that is not a pair of adjacent vertices."""
    try:
        entries = list(entries)
    except TypeError:
        raise ConfigError(f"{name} must be an iterable of edges, got {entries!r}") from None
    edges = set()
    for e in entries:
        try:
            u, v = e
            adjacent = u != v and v in graph.adjacency.get(u, ())
        except (TypeError, ValueError):  # not a pair, or an unhashable or array vertex
            adjacent = False
        if not adjacent:
            raise ConfigError(f"{name} entry {e!r} is not a pair of adjacent vertices")
        edges.add(frozenset((u, v)))
    return edges


def spanning_trees(graph):
    """Every spanning tree of a small simple graph, each a frozenset of
    frozenset edges. It tries every (n-1)-subset of the edges, and raises
    TooLarge when there are more than _SUBSET_CAP of them."""
    _check_graph("graph", graph)
    verts = list(graph.vertices)
    edges = _edge_set(graph)
    n = len(verts)
    subsets = math.comb(len(edges), n - 1)
    if subsets > _SUBSET_CAP:
        raise TooLarge(f"spanning_trees would try {subsets} edge subsets, "
                       f"more than {_SUBSET_CAP}")
    out = []
    for combo in combinations(edges, n - 1):
        lead = {v: v for v in verts}

        def find(x):
            while lead[x] != x:
                lead[x] = lead[lead[x]]
                x = lead[x]
            return x

        ok = True
        for e in combo:
            a, b = tuple(e)
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            lead[ra] = rb
        if ok:
            out.append(frozenset(combo))
    return out


def covering_coupling_check(graph, s_edges, i1, i2):
    """Whether the two edge-conditioned spanning tree laws admit a
    coupling never differing by more than twice the disagreement count.

    s_edges lists the conditioned edges; i1 and i2 are the subsets
    declared present under each conditioning (the rest of s_edges is
    declared absent); each entry is a pair of adjacent vertices. Exact:
    enumerates the trees of a simple graph and solves an integer
    transportation feasibility problem by max-flow.
    """
    _check_graph("graph", graph)
    if len(graph.vertices) > 6:
        raise TooLarge("exact enumeration is limited to six vertices")
    s = _edge_arg(graph, "s_edges", s_edges)
    a1 = _edge_arg(graph, "i1", i1)
    a2 = _edge_arg(graph, "i2", i2)
    if not (a1 <= s and a2 <= s):
        raise ConfigError("conditioned edges must belong to the condition set")
    trees = spanning_trees(graph)
    t1 = [t for t in trees if t & s == a1]
    t2 = [t for t in trees if t & s == a2]
    if not t1 or not t2:
        raise Unconditionable("a conditioning has zero probability")
    return _transportable(t1, t2, 2 * len(a1 ^ a2))


def _transportable(t1, t2, bound):
    """Whether each t1 tree can send len(t2) and each t2 tree take len(t1) on pairs within bound."""
    n1, n2, sink = len(t1), len(t2), len(t1) + len(t2) + 1  # source 0, the trees, then the sink
    edges = list(set().union(*t1, *t2))
    inc = np.array([[e in t for e in edges] for t in chain(t1, t2)])
    near = (inc[:n1, None] != inc[n1:]).sum(axis=2) <= bound  # arcs of n2 units: never binding
    cap = ([dict.fromkeys(range(1, n1 + 1), n2)]  # cap[u][v]: the residual capacity of u -> v
           + [dict.fromkeys((np.flatnonzero(r) + n1 + 1).tolist(), n2) for r in near]
           + [{sink: n1} for _ in t2] + [{}])
    while True:  # Dinic's phases: BFS levels, then a blocking flow found without recursion
        level = [0] + [-1] * sink
        for u in (queue := [0]):
            for v, c in cap[u].items():
                if c and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            return not any(cap[0].values())
        nbrs, tried, path = [list(c) for c in cap], [0] * (sink + 1), [0]
        while path:  # tried[u]: how many of u's arcs are used up in this phase
            if (u := path[-1]) == sink:  # push the path's least residual, then start over
                push = min(cap[a][b] for a, b in zip(path, path[1:]))
                for a, b in zip(path, path[1:]):
                    cap[a][b], cap[b][a] = cap[a][b] - push, cap[b].get(a, 0) + push
                path = [0]
            elif tried[u] == len(nbrs[u]):  # a dead end, out of the level graph for this phase
                level[path.pop()] = -1
            elif cap[u][v := nbrs[u][tried[u]]] and level[v] == level[u] + 1:
                path.append(v)
            else:
                tried[u] += 1
