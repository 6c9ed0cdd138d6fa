"""Uniform spanning trees by loop-erased walks, wired-boundary windows,
and the exact small-graph coupling feasibility check.

Trees are oriented parent maps. Sampling works on multigraphs (parallel
edges weight the walk, which the wired contraction needs); self-loops
are rejected for tree sampling since a loop step can never extend a
spanning tree.
"""

import math
from dataclasses import dataclass
from itertools import combinations, product

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
    _check_steps,
)
from .forest import _fmt_vertex, _line_labels
from .graphs import FiniteGraph, lattice_steps
from .seeds import rng_for

_ROLE_WILSON = 0xE1
_ROLE_LERW = 0xE2

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
    `random_raw` are that stream. A K4 tree reads two or three words, so
    chunks start at four words and double up to 4096."""
    raw = rng.bit_generator.random_raw
    m = 2
    while True:
        for r in raw(m).tolist():
            yield r & 0xFFFFFFFF
            yield r >> 32
        m = min(2 * m, 2048)


def _loop_erased_walk(graph, start, stop, words, budget):
    """Chronological loop-erasure of a walk from start until it hits stop.
    Each step goes to neighbor `rng.integers(deg)`, decoded from `words` by
    Lemire's rule as numpy does: `(w * deg) >> 32`, reading another word
    while the low half of `w * deg` is below `(2**32 - deg) % deg`. A
    degree-1 vertex reads no word."""
    adjacency = graph.adjacency
    path = [start]
    pos = {start: 0}
    cur = start
    steps = 0
    while cur not in stop:
        if budget is not None and steps >= budget:
            raise BudgetExhausted(f"no hit within {budget} steps")
        ns = adjacency[cur]
        deg = len(ns)
        if deg == 1:
            cur = ns[0]
        else:
            m = next(words) * deg
            if m & 0xFFFFFFFF < deg:
                threshold = (0x100000000 - deg) % deg
                while m & 0xFFFFFFFF < threshold:
                    m = next(words) * deg
            cur = ns[m >> 32]
        steps += 1
        i = pos.get(cur)
        if i is None:
            pos[cur] = len(path)
            path.append(cur)
        else:
            for w in path[i + 1 :]:
                del pos[w]
            del path[i + 1 :]
    return path


def lerw(graph, start, stop_set, seed, budget=None):
    """Chronological loop-erasure of a random walk run until stop_set, or
    BudgetExhausted after budget steps (no limit when budget is None)."""
    _check_steps("seed", seed, least=None)
    if budget is not None:
        _check_steps("budget", budget)
    stop = set(stop_set)
    if start not in graph.adjacency:
        raise UnknownVertex(repr(start))
    for v in stop:
        if v not in graph.adjacency:
            raise UnknownVertex(repr(v))
    if not stop:
        raise ConfigError("empty stop set")
    component = graph.component
    if all(component[v] != component[start] for v in stop):
        raise NotConnected("stop set unreachable from start")
    words = _words(rng_for(seed, _ROLE_LERW))
    return _loop_erased_walk(graph, start, stop, words, budget)


# -- Wilson's algorithm ------------------------------------------------------------


def _reject_self_loops(graph):
    if graph.self_loops:
        raise BadGraph(f"self-loop at {graph.self_loops[0]!r}")


def _fill_tree(graph, in_tree, parent, rng):
    words = _words(rng)
    for v0 in graph.vertices:
        if v0 in in_tree:
            continue
        path = _loop_erased_walk(graph, v0, in_tree, words, None)
        for a, b in zip(path, path[1:]):
            parent[a] = b
            in_tree.add(a)


def wilson_ust(graph, root, seed):
    """Uniform spanning tree oriented toward root."""
    _check_steps("seed", seed, least=None)
    _reject_self_loops(graph)
    if root not in graph.adjacency:
        raise UnknownVertex(repr(root))
    if not graph.is_connected():
        raise NotConnected("graph is not connected")
    rng = rng_for(seed, _ROLE_WILSON)
    parent = {}
    _fill_tree(graph, {root}, parent, rng)
    return OrientedTreeOrForest._built(parent, frozenset([root]))


def conditional_wilson(graph, path, seed):
    """Wilson's algorithm preseeded with a simple path; the path's last
    vertex is the root and the output always contains the path."""
    _check_steps("seed", seed, least=None)
    _reject_self_loops(graph)
    if not path or len(set(path)) != len(path):
        raise BadPath("initial path must be nonempty and simple")
    for v in path:
        if v not in graph.adjacency:
            raise UnknownVertex(repr(v))
    for a, b in zip(path, path[1:]):
        if b not in graph.neighbors(a):
            raise BadPath(f"{a!r} -> {b!r} is not an edge")
    if not graph.is_connected():
        raise NotConnected("graph is not connected")
    rng = rng_for(seed, _ROLE_WILSON)
    parent = dict(zip(path, path[1:]))
    _fill_tree(graph, set(path), parent, rng)
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
    edges = set()
    for v in graph.vertices:
        for u in graph.neighbors(v):
            if u != v:
                edges.add(frozenset((u, v)))
    return sorted(edges, key=lambda e: sorted(map(repr, e)))


def spanning_trees(graph):
    """Every spanning tree of a small simple graph, each a frozenset of
    frozenset edges. It tries every (n-1)-subset of the edges, and raises
    TooLarge when there are more than _SUBSET_CAP of them."""
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
    declared absent). Exact: enumerates trees and solves an integer
    transportation feasibility problem.
    """
    if len(graph.vertices) > 6:
        raise TooLarge("exact enumeration is limited to six vertices")
    s = {frozenset(e) for e in s_edges}
    a1 = {frozenset(e) for e in i1}
    a2 = {frozenset(e) for e in i2}
    if not (a1 <= s and a2 <= s):
        raise ConfigError("conditioned edges must belong to the condition set")
    trees = spanning_trees(graph)
    t1 = [t for t in trees if t & s == a1]
    t2 = [t for t in trees if t & s == a2]
    if not t1 or not t2:
        raise Unconditionable("a conditioning has zero probability")
    bound = 2 * len(a1 ^ a2)

    import networkx as nx  # only here, so that importing the package does not load it

    net = nx.DiGraph()
    for ia, ta in enumerate(t1):
        net.add_edge("src", ("a", ia), capacity=len(t2))
        for ib, tb in enumerate(t2):
            if len(ta ^ tb) <= bound:
                net.add_edge(("a", ia), ("b", ib))
    for ib in range(len(t2)):
        net.add_edge(("b", ib), "snk", capacity=len(t1))
    flow = nx.maximum_flow_value(net, "src", "snk")
    return flow == len(t1) * len(t2)
