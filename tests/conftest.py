import numpy as np
import pytest

from urnnet.dynamics import ModelConfig
from urnnet.graphs import parse_edge_list
from urnnet.theory import Problem

C4_EDGES = "0 1\n1 2\n2 3\n3 0"
C5_EDGES = "0 1\n1 2\n2 3\n3 4\n4 0"
K2_EDGES = "0 1"
P3_EDGES = "0 1\n1 2"
FIG2_EDGES = "0 1\n1 0\n0 2\n2 3\n3 4\n4 2"
C3_DIRECTED_EDGES = "0 1\n1 2\n2 0"


def problem(g, code="ftsr", p=0.5, s=2, C=1, t0=4, w0=None, sampling="with", seed=0):
    """Problem on g for a model code with scalar (broadcast) initial composition."""
    w0 = t0 // 2 if w0 is None else w0
    cfg = ModelConfig.from_code(code, p=p, s=s, C=C, t0=t0, w0=w0, n=g.n,
                                sampling=sampling, seed=seed)
    return Problem(g, cfg)


def in_neighbours_oracle(g, v):
    """Vertices an urn at v samples from, by a literal scan of the edge list."""
    if g.directed:
        return sorted(u for (u, w) in g.edges if w == v)
    out = set()
    for u, w in g.edges:
        if u == v:
            out.add(w)
        elif w == v:
            out.add(u)
    return sorted(out)


def grid_edges(rows, cols):
    lines = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c < cols - 1:
                lines.append(f"{i} {i + 1}")
            if r < rows - 1:
                lines.append(f"{i} {i + cols}")
    return "\n".join(lines)


@pytest.fixture
def k2():
    return parse_edge_list(K2_EDGES, directed=False)


@pytest.fixture
def p3():
    return parse_edge_list(P3_EDGES, directed=False)


@pytest.fixture
def c4():
    return parse_edge_list(C4_EDGES, directed=False)


@pytest.fixture
def c5():
    return parse_edge_list(C5_EDGES, directed=False)


@pytest.fixture
def grid33():
    return parse_edge_list(grid_edges(3, 3), directed=False)


@pytest.fixture
def fig2():
    return parse_edge_list(FIG2_EDGES, directed=True)


@pytest.fixture
def c3_directed():
    return parse_edge_list(C3_DIRECTED_EDGES, directed=True)


def random_connected_graph(rng: np.random.Generator, max_n=8):
    """Random connected undirected graph: spanning tree plus extra edges."""
    n = int(rng.integers(2, max_n + 1))
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    possible = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if possible:
        k = int(rng.integers(0, len(possible) + 1))
        idx = rng.choice(len(possible), size=k, replace=False)
        edges |= {possible[i] for i in idx}
    text = "\n".join(f"{u} {v}" for u, v in sorted(edges))
    return parse_edge_list(text, directed=False)


def random_directed_graph(rng: np.random.Generator, max_n=8):
    """Random directed graph with every in-degree >= 1: a directed cycle
    through a random vertex order plus extra arcs."""
    n = int(rng.integers(2, max_n + 1))
    order = rng.permutation(n)
    arcs = {(int(order[i]), int(order[(i + 1) % n])) for i in range(n)}
    for _ in range(int(rng.integers(0, 2 * n))):
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        arcs.add((u, v))
    text = "\n".join(f"{u} {v}" for u, v in sorted(arcs))
    return parse_edge_list(text, directed=True)
