"""Finite graphs hosting the urns: parsing, validation, a BFS 2-colouring
and, for directed graphs, a Kosaraju-Sharir condensation.

Vertices are 0-based integers. Undirected graphs store each edge once and
symmetrize on matrix export; directed edges are (tail, head) pairs. A graph
with a self-loop, an isolated vertex or (if directed) a vertex of in-degree
zero is rejected at construction, with a GraphError naming the fault.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import GraphError

__all__ = ["GraphSpec", "parse_edge_list", "load_edge_file", "matrices"]


@dataclass(frozen=True)
class GraphSpec:
    """Validated edge-list graph. Immutable; safe to share across threads.
    Its one adjacency, the in-neighbour lists, its colouring and its
    condensation are each built once on first use; a structural fact that
    does not apply to the graph's kind is None."""

    n: int
    edges: tuple
    directed: bool

    @cached_property
    def in_neighbours(self):
        """The urns each urn samples from, as read-only arrays (flat, deg):
        deg[v] is v's in-degree (its degree when undirected), positive on a
        validated graph, and v's in-neighbours are flat[o:o + deg[v]] in
        ascending order, with o = deg[:v].sum()."""
        return _in_neighbour_lists(self.n, self.edges, both_ways=not self.directed)

    @cached_property
    def _two_colouring(self):
        """BFS 2-colouring of the undirected view from vertex 0: (colour,
        bipartite). colour[v] is -1 for a vertex the search never reached."""
        if self.directed:
            return _two_colour(*_in_neighbour_lists(self.n, self.edges, both_ways=True))
        return _two_colour(*self.in_neighbours)

    @cached_property
    def bipartition(self) -> Optional[tuple]:
        """(frozenset V, frozenset W), the colour classes with 0 in V, of a
        bipartite undirected graph."""
        colour, bipartite = self._two_colouring
        if self.directed or not bipartite:
            return None
        V = frozenset(i for i in range(self.n) if colour[i] == 0)
        return V, frozenset(range(self.n)) - V

    @cached_property
    def regular_degree(self) -> Optional[int]:
        """The common degree of a regular undirected graph."""
        deg = self.in_neighbours[1]
        return None if self.directed or np.any(deg != deg[0]) else int(deg[0])

    @cached_property
    def _condensation(self):
        """(scc_order, g1_is_odd_cycle) of a directed graph from the two
        passes of _condense; (None, None) on an undirected one."""
        return _condense(self) if self.directed else (None, None)

    @cached_property
    def scc_order(self) -> Optional[tuple]:
        """Strongly connected components (frozensets) in topological order."""
        return self._condensation[0]

    @cached_property
    def g1_is_odd_cycle(self) -> Optional[bool]:
        """Whether every source component (G1 is one) is an odd directed cycle."""
        return self._condensation[1]


def parse_edge_list(text: str, directed: bool) -> GraphSpec:
    """Parse a whitespace-separated "u v" edge list into a GraphSpec.

    Lines starting with '#' and blank lines are ignored. Duplicate edges
    collapse to one; undirected inputs accept either orientation. The vertex
    count is max index + 1, so every vertex below it must have an edge;
    that is checked on the pairs, before any array of n entries is built.
    """
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            if not line.isascii() or "_" in line:
                raise ValueError  # int() also reads '1_0' and Unicode digits
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer vertex in {raw!r}")
        pairs.append((u, v))
    if not pairs:
        raise GraphError("graph has no edges")

    n = max(map(max, pairs)) + 1
    for u, v in pairs:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if u < 0 or v < 0:
            raise GraphError(f"vertex index {u if u < 0 else v} outside [0, {n})")
    if len({x for pair in pairs for x in pair}) < n:  # some vertex has no edge
        raise _disconnected(directed)

    if directed:
        edges = tuple(sorted(set(pairs)))
    else:
        edges = tuple(sorted({(u, v) if u < v else (v, u) for u, v in pairs}))

    g = GraphSpec(n=n, edges=edges, directed=directed)
    _validate(g)
    return g


def load_edge_file(path, directed: bool) -> GraphSpec:
    """Read a UTF-8 edge-list file (see parse_edge_list for the format);
    GraphError naming the file when it is not UTF-8 text."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphError(f"graph file {path} is not UTF-8 text: {exc}") from None
    return parse_edge_list(text, directed)


def _disconnected(directed: bool) -> GraphError:
    return GraphError("directed graph is not weakly connected" if directed
                      else "undirected graph is not connected")


def _validate(g: GraphSpec) -> None:
    if -1 in g._two_colouring[0]:
        raise _disconnected(g.directed)
    if g.directed:
        zero = np.flatnonzero(g.in_neighbours[1] == 0)
        if zero.size:
            raise GraphError(f"vertex {zero[0]} has in-degree 0")


def _in_neighbour_lists(n: int, edges: tuple, both_ways: bool):
    """(flat, deg) read-only in-neighbour lists of the arcs (u, v) in edges,
    and of their reverses too when both_ways."""
    src, dst = (np.array(ends, dtype=np.int64) for ends in zip(*edges))
    if both_ways:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    flat, deg = src[np.lexsort((src, dst))], np.bincount(dst, minlength=n)
    flat.flags.writeable = deg.flags.writeable = False
    return flat, deg


def _two_colour(flat: np.ndarray, deg: np.ndarray):
    """BFS 2-colouring of symmetric neighbour lists from vertex 0."""
    flat, ends = flat.tolist(), np.cumsum(deg).tolist()
    starts = [0] + ends[:-1]
    colour = [-1] * len(ends)
    colour[0] = 0
    bipartite = True
    queue = [0]
    for u in queue:  # the queue grows as the search reaches new vertices
        for v in flat[starts[u]:ends[u]]:
            if colour[v] == -1:
                colour[v] = 1 - colour[u]
                queue.append(v)
            elif colour[v] == colour[u]:
                bipartite = False
    return colour, bipartite


def matrices(g: GraphSpec) -> np.ndarray:
    """Dense adjacency matrix: A[u, v] = 1 iff there is an edge u->v.

    Undirected edges fill both orientations. Column sums are the degrees
    (in-degrees on directed graphs), which GraphSpec.in_neighbours counts
    without building the n x n matrix.
    """
    flat, deg = g.in_neighbours
    A = np.zeros((g.n, g.n))
    A[flat, np.repeat(np.arange(g.n), deg)] = 1.0
    return A


def _condense(g: GraphSpec):
    """(SCCs as frozensets in topological order, whether every source
    component, one no arc enters from another, is an odd directed cycle).
    Kosaraju-Sharir: a DFS over the out-arcs (roots and arcs ascending)
    records finish order; by decreasing finish time, each unclaimed vertex
    then claims its component by flooding the in-neighbour lists."""
    succ = [[] for _ in range(g.n)]
    for u, v in g.edges:
        succ[u].append(v)
    seen, finished = [False] * g.n, []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, arcs = stack[-1]
            for w in arcs:  # resumes where v's last visit left off
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                finished.append(v)

    flat, deg = g.in_neighbours
    flat, deg, ends = flat.tolist(), deg.tolist(), np.cumsum(deg).tolist()
    comp_of, order = [-1] * g.n, []
    # a component's first-found vertex finishes last in it, so components
    # are claimed in decreasing order of those finish times
    for root in reversed(finished):
        if comp_of[root] != -1:
            continue
        comp_of[root] = len(order)
        comp = [root]
        for v in comp:  # the component grows as the flood claims vertices
            for u in flat[ends[v] - deg[v]:ends[v]]:
                if comp_of[u] == -1:
                    comp_of[u] = len(order)
                    comp.append(u)
        order.append(frozenset(comp))

    inner, entered = [0] * len(order), [False] * len(order)
    for u, v in g.edges:
        cu, cv = comp_of[u], comp_of[v]
        if cu == cv:
            inner[cu] += 1
        elif cu > cv:
            raise AssertionError("SCC order violates an arc")
        else:
            entered[cv] = True
    # an SCC on k >= 2 vertices has at least k inner arcs, and exactly k
    # only when it is a single directed cycle
    sources_odd = all(len(comp) % 2 == 1 and inner[i] == len(comp)
                      for i, comp in enumerate(order) if not entered[i])
    return tuple(order), sources_odd
