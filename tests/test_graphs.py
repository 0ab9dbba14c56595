import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urnnet.errors import GraphError
from urnnet.graphs import matrices, parse_edge_list

from conftest import (
    FIG2_EDGES,
    MULTI_SOURCE_ARCS,
    MULTI_SOURCE_RELABELLED,
    digraph,
    in_neighbours_oracle,
    problem,
    random_connected_graph,
    random_multi_component_arcs,
)


def test_parse_single_edge():
    g = parse_edge_list("0 1", directed=False)
    assert g.n == 2
    assert g.edges == ((0, 1),)
    assert not g.directed


def test_parse_c4_with_comments_and_blanks():
    g = parse_edge_list("# a cycle\n0 1\n\n1 2\n2 3\n3 0\n", directed=False)
    assert g.n == 4
    assert len(g.edges) == 4


def test_parse_duplicates_and_orientation_collapse():
    g = parse_edge_list("0 1\n1 0\n0 1", directed=False)
    assert g.edges == ((0, 1),)


def test_parse_fig2_in_degrees():
    g = parse_edge_list(FIG2_EDGES, directed=True)
    _, din = g.in_neighbours
    assert din.tolist() == [1, 1, 2, 1, 1]


def exact(message):
    """A pytest.raises match pattern for exactly this message."""
    return f"^{re.escape(message)}$"


NOT_CONNECTED = "undirected graph is not connected"
NOT_WEAKLY = "directed graph is not weakly connected"


# Every fault is a GraphError pinned by its exact message. Each row's id ends
# in the fault label the row has always carried (the name of the exception
# type once raised for it), so the test names stay as they were.
@pytest.mark.parametrize("text,directed,message", [
    pytest.param(text, directed, message, id=f"{text}-{directed}-{label}")
    for text, directed, label, message in [
        ("0 0", False, "SelfLoopError", "self-loop at vertex 0"),
        ("", False, "EmptyGraphError", "graph has no edges"),
        ("# only comments\n", False, "EmptyGraphError", "graph has no edges"),
        ("0 1\n2 3", False, "NotConnectedError", NOT_CONNECTED),
        ("0 1\n2 3", True, "NotWeaklyConnectedError", NOT_WEAKLY),
        ("0 1\n0 2\n1 2", True, "ZeroInDegreeError", "vertex 0 has in-degree 0"),
        # ids no edge reaches are rejected before any array of n entries
        ("0 1\n1 1000000000000000", False, "NotConnectedError", NOT_CONNECTED),
        ("0 1\n1 1000000000000000", True, "NotWeaklyConnectedError", NOT_WEAKLY),
        ("0 1\n1 99999999999999999999", False, "NotConnectedError", NOT_CONNECTED),  # > int64
        ("0 1\n1 99999999999999999999", True, "NotWeaklyConnectedError", NOT_WEAKLY),
        # int() reads these as 2, 0 and 1; vertex ids are ASCII digits only
        ("0 1\n1 0_2", False, "EmptyGraphError", "line 2: non-integer vertex in '1 0_2'"),
        ("0 1\n1 0_0", True, "EmptyGraphError", "line 2: non-integer vertex in '1 0_0'"),
        ("0 \u0661", False, "EmptyGraphError", "line 1: non-integer vertex in '0 \u0661'"),
        ("0 \u0661\n\u0661 0", True, "EmptyGraphError",
         "line 1: non-integer vertex in '0 \u0661'"),
    ]
])
def test_parse_rejects(text, directed, message):
    with pytest.raises(GraphError, match=exact(message)):
        parse_edge_list(text, directed=directed)


def test_parse_negative_index_out_of_range():
    with pytest.raises(GraphError, match=exact("vertex index -1 outside [0, 1)")):
        parse_edge_list("0 -1", directed=False)


def test_matrices_k2(k2):
    P = problem(k2)
    A, d = P.A, P.deg
    assert A.tolist() == [[0, 1], [1, 0]]
    assert d.tolist() == [1, 1]


def test_matrices_p3_column_stochastic(p3):
    P = problem(p3)
    A, d = P.A, P.deg
    assert d.tolist() == [1, 2, 1]
    col_sums = (A / d[None, :]).sum(axis=0)
    assert np.allclose(col_sums, 1.0, atol=1e-12)


def test_analyze_c4(c4):
    assert c4.bipartition == (frozenset({0, 2}), frozenset({1, 3}))
    assert c4.regular_degree == 2


def test_analyze_c5(c5):
    assert c5.bipartition is None
    assert c5.regular_degree == 2


def test_analyze_fig2_sccs(fig2):
    assert [sorted(c) for c in fig2.scc_order] == [[0, 1], [2, 3, 4]]
    assert fig2.g1_is_odd_cycle is False  # leading component is a 2-cycle


def test_analyze_directed_c3_is_odd_cycle(c3_directed):
    assert c3_directed.scc_order == (frozenset({0, 1, 2}),)
    assert c3_directed.g1_is_odd_cycle is True


def test_scc_order_respects_edges(fig2):
    comp_of = {}
    for i, comp in enumerate(fig2.scc_order):
        for v in comp:
            comp_of[v] = i
    for u, v in fig2.edges:
        assert comp_of[u] <= comp_of[v]


def _has_odd_cycle(A):
    # brute force: an odd closed walk exists iff an odd cycle does (n <= 8)
    n = A.shape[0]
    M = A.copy()
    for k in range(1, n + 1):
        if k % 2 == 1 and np.trace(M) > 0:
            return True
        M = M @ A
    return False


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_bipartition_xor_odd_cycle(seed):
    g = random_connected_graph(np.random.default_rng(seed))
    P = problem(g)
    A, d = P.A, P.deg
    assert (g.bipartition is not None) == (not _has_odd_cycle(A))
    if g.bipartition is not None:
        V, W = g.bipartition
        assert V | W == set(range(g.n)) and not (V & W)
        for u, v in g.edges:
            assert (u in V) != (v in V)
    # column-stochastic transfer matrix, for both orientations of degree use
    assert np.allclose((A / d[None, :]).sum(axis=0), 1.0, atol=1e-12)
    # in-neighbour lists agree with a literal scan of the edge list and with A
    flat, deg = g.in_neighbours
    off = np.cumsum(deg) - deg
    for v in range(g.n):
        nbrs = flat[off[v]:off[v] + deg[v]].tolist()
        assert nbrs == in_neighbours_oracle(g, v) == np.flatnonzero(A[:, v]).tolist()


def test_in_neighbours_directed(fig2):
    flat, deg = fig2.in_neighbours
    assert deg.tolist() == [1, 1, 2, 1, 1]
    assert flat.tolist() == [1, 0, 0, 4, 2, 3]  # vertex 2 samples from 0 and 4
    assert in_neighbours_oracle(fig2, 2) == [0, 4]
    assert in_neighbours_oracle(fig2, 0) == [1]


def test_graphspec_immutable(c4):
    with pytest.raises(Exception):
        c4.n = 7


def _reachability(n, arcs):
    """reach[u, v]: v is reachable from u by a directed path of length >= 0."""
    reach = np.eye(n, dtype=bool)
    for u, v in arcs:
        reach[u, v] = True
    for k in range(n):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    return reach


def _sources_are_odd_cycles(arcs, comps):
    """Every SCC that no arc enters from another SCC is one odd directed cycle."""
    for comp in comps:
        if any(v in comp and u not in comp for u, v in arcs):
            continue
        inner = [(u, v) for u, v in arcs if u in comp and v in comp]
        outs = sorted(u for u, _ in inner)
        if len(comp) % 2 == 0 or outs != sorted(comp) or sorted(v for _, v in inner) != outs:
            return False
    return True


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_scc_order_is_the_condensation(seed):
    arcs = random_multi_component_arcs(np.random.default_rng(seed))
    g = digraph(arcs)
    comps = g.scc_order
    assert sorted(v for c in comps for v in c) == list(range(g.n))
    reach = _reachability(g.n, arcs)
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    for u, v in arcs:
        assert comp_of[u] <= comp_of[v]
    # strongly connected and maximal: same component iff mutually reachable
    assert np.array_equal(reach & reach.T,
                          np.equal.outer([comp_of[v] for v in range(g.n)],
                                         [comp_of[v] for v in range(g.n)]))
    assert g.g1_is_odd_cycle == _sources_are_odd_cycles(arcs, comps)
    assert sorted(zip(*np.nonzero(matrices(g)))) == arcs


@pytest.mark.parametrize("arcs,order", [
    (MULTI_SOURCE_ARCS, [[3, 4], [0, 1, 2], [5]]),
    (MULTI_SOURCE_RELABELLED, [[2, 3, 4], [0, 1], [5]]),
    ([(0, 1), (1, 0), (2, 1), (3, 4), (4, 3), (3, 1), (5, 2), (2, 5)], [[3, 4], [2, 5], [0, 1]]),
], ids=["arcs0", "arcs1", "arcs2"])
def test_g1_odd_cycle_needs_every_source_component(arcs, order):
    g = digraph(arcs)
    # the order analyze prints: by decreasing finish time of each
    # component's first-found vertex in the DFS from 0, 1, ...
    assert [sorted(c) for c in g.scc_order] == order
    assert g.g1_is_odd_cycle is False  # a 2-cycle is a source component too


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_zero_in_degree_names_the_smallest_such_vertex(seed, zero_in):
    arcs = random_multi_component_arcs(np.random.default_rng(seed), zero_in=zero_in)
    heads = {v for _, v in arcs}
    n = 1 + max(max(a) for a in arcs)
    smallest = min(set(range(n)) - heads)
    with pytest.raises(GraphError, match=exact(f"vertex {smallest} has in-degree 0")):
        digraph(arcs)
