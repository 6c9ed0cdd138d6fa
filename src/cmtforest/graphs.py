"""Finite base graphs for the space-time and spanning-forest models.

Adjacency rows are neighbor multisets: a parallel edge repeats the
neighbor, a self-loop lists the vertex once in its own row. Multiset
symmetry is validated on construction, so a FiniteGraph is always a
legitimate undirected multigraph. A graph never changes (its adjacency and
component maps are read-only views), so the facts the samplers read on
every call (the frame, components, self-loops) are computed once.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import NamedTuple

from .errors import BadGraph, ConfigError, _check_steps


class GraphFrame(NamedTuple):
    """A graph by rows: its vertex order, each vertex's row (a read-only
    map) and each row's neighbour rows, in adjacency order and with
    multiplicity. A walk draws its step by place in a row, so this order
    fixes every walk stream."""

    vertices: tuple
    row: MappingProxyType
    nbrs: tuple


@dataclass(frozen=True)
class FiniteGraph:
    adjacency: dict

    def __post_init__(self):
        adj = {v: tuple(ns) for v, ns in self.adjacency.items()}
        if not adj:
            raise BadGraph("no vertices")
        for v, ns in adj.items():
            for u, k in Counter(ns).items():
                if u not in adj:
                    raise BadGraph(f"edge endpoint {u!r} is not a vertex")
                if u != v and adj[u].count(v) != k:
                    raise BadGraph(f"asymmetric multiplicity between {v!r} and {u!r}")
        object.__setattr__(self, "adjacency", MappingProxyType(adj))

    def __reduce__(self):  # pickles the rows alone; a copy builds its cached facts anew
        return FiniteGraph, (dict(self.adjacency),)

    @cached_property
    def frame(self):
        verts = tuple(self.adjacency)
        row = dict(zip(verts, range(len(verts))))
        nbrs = tuple(tuple(map(row.__getitem__, ns)) for ns in self.adjacency.values())
        return GraphFrame(verts, MappingProxyType(row), nbrs)

    @property
    def vertices(self):
        return self.frame.vertices

    def degree(self, v):
        return len(self.adjacency[v])

    def neighbors(self, v):
        return self.adjacency[v]

    def edge_count(self):
        loops = sum(Counter(ns)[v] for v, ns in self.adjacency.items())
        return loops + (sum(map(len, self.adjacency.values())) - loops) // 2

    @cached_property
    def component(self):
        """Component id of every vertex (a read-only map), counting up from 0
        in vertex order; two vertices reach each other exactly when their ids
        are equal."""
        label = {}
        i = -1
        for v0 in self.adjacency:
            if v0 in label:
                continue
            i += 1
            label[v0] = i
            stack = [v0]
            while stack:
                for u in self.adjacency[stack.pop()]:
                    if u not in label:
                        label[u] = i
                        stack.append(u)
        return MappingProxyType(label)

    @cached_property
    def self_loops(self):
        """The vertices whose row lists themselves, in vertex order."""
        return tuple(v for v, ns in self.adjacency.items() if v in ns)

    def is_connected(self):
        return not any(self.component.values())


def _check_graph(name, graph):
    if not isinstance(graph, FiniteGraph):
        raise ConfigError(f"{name} must be a FiniteGraph, got {type(graph).__name__}")


def lattice_steps(v):
    """The 2d nearest neighbours of the integer point v, axis by axis, down
    then up. A walk draws its step by place in this order, so the order
    fixes every walk stream on lattice-built graphs."""
    return [v[:a] + (v[a] + step,) + v[a + 1:] for a in range(len(v)) for step in (-1, 1)]


def complete_graph(n):
    _check_steps("n", n, least=None)
    if n < 1:
        raise BadGraph("need at least one vertex")
    return FiniteGraph({i: tuple(j for j in range(n) if j != i) for i in range(n)})


def cycle_graph(n):
    _check_steps("n", n, least=None)
    if n < 3:
        raise BadGraph("a cycle needs at least three vertices")
    return FiniteGraph({i: ((i - 1) % n, (i + 1) % n) for i in range(n)})


def path_graph(n):
    _check_steps("n", n, least=None)
    if n < 2:
        raise BadGraph("a path needs at least two vertices")
    return FiniteGraph(
        {i: tuple(j for j in (i - 1, i + 1) if 0 <= j < n) for i in range(n)}
    )


def torus_graph(side, dimension=1):
    """Nearest-neighbor graph on (Z mod side)^dimension; side 2 yields
    parallel edges, which the multiset representation keeps."""
    _check_steps("side", side, least=None)
    _check_steps("dimension", dimension, least=None)
    if side < 2 or dimension < 1:
        raise BadGraph("side must be >= 2 and dimension positive")
    return FiniteGraph({v: [tuple(x % side for x in w) for w in lattice_steps(v)]
                        for v in product(range(side), repeat=dimension)})


def regular_tree(degree, depth):
    """Ball of the infinite degree-regular tree: the root has `degree`
    children, every other internal vertex degree-1 of them. Vertices are
    tuples of child indices from the root, so () is the root."""
    _check_steps("degree", degree, least=None)
    _check_steps("depth", depth, least=None)
    if degree < 2 or depth < 0:
        raise BadGraph("degree must be >= 2 and depth nonnegative")
    adj = {(): []}
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            n_children = degree if v == () else degree - 1
            for c in range(n_children):
                w = v + (c,)
                adj[v].append(w)
                adj[w] = [v]
                nxt.append(w)
        frontier = nxt
    return FiniteGraph(adj)
