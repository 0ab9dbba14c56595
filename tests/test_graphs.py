import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urnnet.errors import (
    EmptyGraphError,
    IndexOutOfRangeError,
    NotConnectedError,
    NotWeaklyConnectedError,
    SelfLoopError,
    ZeroInDegreeError,
)
from urnnet.graphs import analyze_graph, in_neighbours, parse_edge_list

from conftest import FIG2_EDGES, in_neighbours_oracle, problem, random_connected_graph


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
    _, din = in_neighbours(g)
    assert din.tolist() == [1, 1, 2, 1, 1]


@pytest.mark.parametrize("text,directed,err", [
    ("0 0", False, SelfLoopError),
    ("", False, EmptyGraphError),
    ("# only comments\n", False, EmptyGraphError),
    ("0 1\n2 3", False, NotConnectedError),
    ("0 1\n2 3", True, NotWeaklyConnectedError),
    ("0 1\n0 2\n1 2", True, ZeroInDegreeError),  # vertex 0 never receives
])
def test_parse_rejects(text, directed, err):
    with pytest.raises(err):
        parse_edge_list(text, directed=directed)


def test_parse_explicit_n_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        parse_edge_list("0 5", directed=False, n=3)


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
    ga = analyze_graph(c4)
    assert ga.bipartition == (frozenset({0, 2}), frozenset({1, 3}))
    assert ga.regular_degree == 2
    assert ga.canonical_perm == (0, 2, 1, 3)
    assert ga.m == 2


def test_analyze_c5(c5):
    ga = analyze_graph(c5)
    assert ga.bipartition is None
    assert ga.regular_degree == 2


def test_analyze_fig2_sccs(fig2):
    ga = analyze_graph(fig2)
    assert [sorted(c) for c in ga.scc_order] == [[0, 1], [2, 3, 4]]
    assert ga.g1_is_odd_cycle is False  # leading component is a 2-cycle


def test_analyze_directed_c3_is_odd_cycle(c3_directed):
    ga = analyze_graph(c3_directed)
    assert ga.scc_order == (frozenset({0, 1, 2}),)
    assert ga.g1_is_odd_cycle is True


def test_scc_order_respects_edges(fig2):
    ga = analyze_graph(fig2)
    comp_of = {}
    for i, comp in enumerate(ga.scc_order):
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
    ga = analyze_graph(g)
    assert (ga.bipartition is not None) == (not _has_odd_cycle(A))
    if ga.bipartition is not None:
        V, W = ga.bipartition
        assert V | W == set(range(g.n)) and not (V & W)
        for u, v in g.edges:
            assert (u in V) != (v in V)
    # column-stochastic transfer matrix, for both orientations of degree use
    assert np.allclose((A / d[None, :]).sum(axis=0), 1.0, atol=1e-12)
    # in-neighbour lists agree with a literal scan of the edge list and with A
    flat, deg = in_neighbours(g)
    off = np.cumsum(deg) - deg
    for v in range(g.n):
        nbrs = flat[off[v]:off[v] + deg[v]].tolist()
        assert nbrs == in_neighbours_oracle(g, v) == np.flatnonzero(A[:, v]).tolist()


def test_in_neighbours_directed(fig2):
    flat, deg = in_neighbours(fig2)
    assert deg.tolist() == [1, 1, 2, 1, 1]
    assert flat.tolist() == [1, 0, 0, 4, 2, 3]  # vertex 2 samples from 0 and 4
    assert in_neighbours_oracle(fig2, 2) == [0, 4]
    assert in_neighbours_oracle(fig2, 0) == [1]


def test_graphspec_immutable(c4):
    with pytest.raises(Exception):
        c4.n = 7
