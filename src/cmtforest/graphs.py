"""Finite base graphs for the space-time and spanning-forest models.

Adjacency rows are neighbor multisets: a parallel edge repeats the
neighbor, a self-loop lists the vertex once in its own row. Multiset
symmetry is validated on construction, so a FiniteGraph is always a
legitimate undirected multigraph. A graph never changes, so the facts the
samplers check on every call (components, self-loops) are computed once.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .errors import BadGraph


@dataclass(frozen=True)
class FiniteGraph:
    adjacency: dict

    def __post_init__(self):
        adj = {v: tuple(ns) for v, ns in self.adjacency.items()}
        if not adj:
            raise BadGraph("no vertices")
        for v, ns in adj.items():
            for u in ns:
                if u not in adj:
                    raise BadGraph(f"edge endpoint {u!r} is not a vertex")
        for v, ns in adj.items():
            for u, k in Counter(ns).items():
                if u != v and Counter(adj[u])[v] != k:
                    raise BadGraph(f"asymmetric multiplicity between {v!r} and {u!r}")
        object.__setattr__(self, "adjacency", adj)

    @property
    def vertices(self):
        return tuple(self.adjacency)

    def degree(self, v):
        return len(self.adjacency[v])

    def neighbors(self, v):
        return self.adjacency[v]

    def edge_count(self):
        loops = sum(Counter(ns)[v] for v, ns in self.adjacency.items())
        return loops + (sum(map(len, self.adjacency.values())) - loops) // 2

    @cached_property
    def component(self):
        """Component id of every vertex, counting up from 0 in vertex order;
        two vertices reach each other exactly when their ids are equal."""
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
        return label

    @cached_property
    def self_loops(self):
        """The vertices whose row lists themselves, in vertex order."""
        return tuple(v for v, ns in self.adjacency.items() if v in ns)

    def is_connected(self):
        return not any(self.component.values())


def finite_graph(adjacency):
    return FiniteGraph({v: tuple(ns) for v, ns in adjacency.items()})


def complete_graph(n):
    if n < 1:
        raise BadGraph("need at least one vertex")
    return FiniteGraph({i: tuple(j for j in range(n) if j != i) for i in range(n)})


def cycle_graph(n):
    if n < 3:
        raise BadGraph("a cycle needs at least three vertices")
    return FiniteGraph({i: ((i - 1) % n, (i + 1) % n) for i in range(n)})


def path_graph(n):
    if n < 2:
        raise BadGraph("a path needs at least two vertices")
    return FiniteGraph(
        {i: tuple(j for j in (i - 1, i + 1) if 0 <= j < n) for i in range(n)}
    )


def torus_graph(side, dimension=1):
    """Nearest-neighbor graph on (Z mod side)^dimension; side 2 yields
    parallel edges, which the multiset representation keeps."""
    if side < 2 or dimension < 1:
        raise BadGraph("side must be >= 2 and dimension positive")
    adj = {}
    for v in product(range(side), repeat=dimension):
        ns = []
        for axis in range(dimension):
            for step in (-1, 1):
                w = list(v)
                w[axis] = (w[axis] + step) % side
                ns.append(tuple(w))
        adj[v] = tuple(ns)
    return FiniteGraph(adj)


def regular_tree(degree, depth):
    """Ball of the infinite degree-regular tree: the root has `degree`
    children, every other internal vertex degree-1 of them. Vertices are
    tuples of child indices from the root, so () is the root."""
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
    return FiniteGraph({v: tuple(ns) for v, ns in adj.items()})
