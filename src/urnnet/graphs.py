"""Finite graphs hosting the urns: parsing, validation, structure analysis.

Vertices are 0-based integers. Undirected graphs store each edge once and
symmetrize on matrix export; directed edges are (tail, head) pairs. Graphs
with self-loops, isolated vertices, or (for directed inputs) vertices of
in-degree zero are rejected at construction.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    EmptyGraphError,
    IndexOutOfRangeError,
    NotConnectedError,
    NotWeaklyConnectedError,
    SelfLoopError,
    ZeroInDegreeError,
)

__all__ = [
    "GraphSpec",
    "GraphAnalysis",
    "parse_edge_list",
    "load_edge_file",
    "matrices",
    "in_neighbours",
    "analyze_graph",
]


@dataclass(frozen=True)
class GraphSpec:
    """Validated edge-list graph. Immutable; safe to share across threads."""

    n: int
    edges: tuple
    directed: bool


@dataclass(frozen=True)
class GraphAnalysis:
    """Structural classification of a GraphSpec."""

    connected: bool
    bipartition: Optional[tuple] = None  # (frozenset V, frozenset W), 0 in V
    regular_degree: Optional[int] = None
    scc_order: Optional[tuple] = None  # SCCs in topological order (directed)
    g1_is_odd_cycle: Optional[bool] = None


def parse_edge_list(text: str, directed: bool, n: Optional[int] = None) -> GraphSpec:
    """Parse a whitespace-separated "u v" edge list into a GraphSpec.

    Lines starting with '#' and blank lines are ignored. Duplicate edges
    collapse to one; undirected inputs accept either orientation. When n is
    omitted it is inferred as max index + 1.
    """
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EmptyGraphError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EmptyGraphError(f"line {lineno}: non-integer vertex in {raw!r}")
        pairs.append((u, v))
    if not pairs:
        raise EmptyGraphError()

    bound = max(max(u, v) for u, v in pairs) + 1
    if n is None:
        n = bound
    for u, v in pairs:
        if u == v:
            raise SelfLoopError(u)
        for x in (u, v):
            if x < 0 or x >= n:
                raise IndexOutOfRangeError(x, n)

    if directed:
        edges = tuple(sorted(set(pairs)))
    else:
        edges = tuple(sorted({(min(u, v), max(u, v)) for u, v in pairs}))

    g = GraphSpec(n=n, edges=edges, directed=directed)
    _validate(g)
    return g


def load_edge_file(path, directed: bool) -> GraphSpec:
    """Read a UTF-8 edge-list file (see parse_edge_list for the format)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read(), directed)


def _validate(g: GraphSpec) -> None:
    if g.n < 2:
        raise EmptyGraphError("need at least 2 vertices")
    adj = _undirected_adjacency_sets(g)
    seen = _bfs_component(adj, 0)
    if len(seen) != g.n:
        if g.directed:
            raise NotWeaklyConnectedError()
        raise NotConnectedError()
    if g.directed:
        indeg = [0] * g.n
        for _, v in g.edges:
            indeg[v] += 1
        for v, d in enumerate(indeg):
            if d == 0:
                raise ZeroInDegreeError(v)


def _undirected_adjacency_sets(g: GraphSpec) -> list:
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _bfs_component(adj, root) -> set:
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def matrices(g: GraphSpec) -> np.ndarray:
    """Dense adjacency matrix: A[u, v] = 1 iff there is an edge u->v.

    Undirected edges fill both orientations. Column sums are the degrees
    (in-degrees on directed graphs), which in_neighbours() counts without
    building the n x n matrix.
    """
    A = np.zeros((g.n, g.n))
    for u, v in g.edges:
        A[u, v] = 1.0
        if not g.directed:
            A[v, u] = 1.0
    return A


def in_neighbours(g: GraphSpec):
    """The urns each urn samples from, as flat arrays (flat, deg).

    deg[v] is the in-degree of v (the degree when undirected), positive on a
    validated graph. The in-neighbours of v are flat[o:o + deg[v]] in
    ascending order, with o = deg[:v].sum().
    """
    e = np.asarray(g.edges, dtype=np.int64)
    src, dst = e[:, 0], e[:, 1]
    if not g.directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    order = np.lexsort((src, dst))
    return src[order], np.bincount(dst, minlength=g.n)


def analyze_graph(g: GraphSpec) -> GraphAnalysis:
    """Classify a graph: bipartiteness, regularity, SCC structure."""
    if g.directed:
        sccs = _tarjan_sccs(g)
        order = _topological_scc_order(g, sccs)
        first = order[0]
        return GraphAnalysis(
            connected=True,
            bipartition=None,
            regular_degree=None,
            scc_order=tuple(frozenset(c) for c in order),
            g1_is_odd_cycle=_is_odd_directed_cycle(g, first),
        )

    adj = _undirected_adjacency_sets(g)
    colour = _two_colour(adj)
    bipartition = None
    if colour is not None:
        V = frozenset(i for i in range(g.n) if colour[i] == colour[0])
        bipartition = (V, frozenset(range(g.n)) - V)
    degs = [len(adj[v]) for v in range(g.n)]
    regular = degs[0] if len(set(degs)) == 1 else None
    return GraphAnalysis(connected=True, bipartition=bipartition, regular_degree=regular)


def _two_colour(adj) -> Optional[list]:
    """BFS 2-colouring; None when an odd cycle obstructs it."""
    n = len(adj)
    colour = [-1] * n
    colour[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if colour[v] == -1:
                colour[v] = 1 - colour[u]
                queue.append(v)
            elif colour[v] == colour[u]:
                return None
    return colour


def _tarjan_sccs(g: GraphSpec) -> list:
    """Iterative Tarjan; emits SCCs in reverse topological order."""
    succ = [[] for _ in range(g.n)]
    for u, v in g.edges:
        succ[u].append(v)
    index = [0]
    indices = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []

    for root in range(g.n):
        if root in indices:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                indices[v] = low[v] = index[0]
                index[0] += 1
                stack.append(v)
                on_stack.add(v)
            recurse = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if w not in indices:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], indices[w])
            if recurse:
                continue
            if low[v] == indices[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


def _topological_scc_order(g: GraphSpec, sccs) -> list:
    """Order SCCs so every cross-component edge goes forward."""
    order = list(reversed(sccs))
    comp_of = {}
    for i, comp in enumerate(order):
        for v in comp:
            comp_of[v] = i
    for u, v in g.edges:
        if comp_of[u] > comp_of[v]:
            raise AssertionError("SCC order violates an edge; Tarjan bug")
    return order


def _is_odd_directed_cycle(g: GraphSpec, comp) -> bool:
    """True iff the component is a single directed cycle of odd length."""
    if len(comp) < 3 or len(comp) % 2 == 0:
        return False
    out_in = {v: [0, 0] for v in comp}
    for u, v in g.edges:
        if u in comp and v in comp:
            out_in[u][0] += 1
            out_in[v][1] += 1
    return all(o == 1 and i == 1 for o, i in out_in.values())
