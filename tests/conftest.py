import io

import numpy as np
import pytest

from urnnet.cli import _dump
from urnnet.dynamics import _BLOCK_BUDGET, ModelConfig, StepKernel, parse_schedule
from urnnet.graphs import parse_edge_list
from urnnet.theory import Problem

C4_EDGES = "0 1\n1 2\n2 3\n3 0"
C5_EDGES = "0 1\n1 2\n2 3\n3 4\n4 0"
K2_EDGES = "0 1"
P3_EDGES = "0 1\n1 2"
FIG2_EDGES = "0 1\n1 0\n0 2\n2 3\n3 4\n4 2"
C3_DIRECTED_EDGES = "0 1\n1 2\n2 0"
# directed graph whose Jacobian is defective for every Friedman model at
# p in (0, 1): its eigenvector matrix has condition number ~1e15 or worse
DEFECTIVE_EDGES = "0 1\n0 2\n1 3\n2 0"
# two source 2-cycles and a common sink: the zero eigenvalue of I + A D^-1
# is double
TWO_SOURCE_2CYCLES_ARCS = [(0, 1), (1, 0), (2, 3), (3, 2), (0, 4), (2, 4)]

# isomorphic graphs with two source components, a 2-cycle and a 3-cycle, and
# a common sink: the classification must not depend on the labels
MULTI_SOURCE_ARCS = [(3, 4), (4, 3), (0, 1), (1, 2), (2, 0), (0, 5), (3, 5)]
MULTI_SOURCE_RELABELLED = [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (0, 5), (2, 5)]


def problem(g, code="ftsr", p=0.5, s=2, C=1, t0=4, w0=None, sampling="with", seed=0):
    """Problem on g for a model code with scalar (broadcast) initial composition."""
    w0 = t0 // 2 if w0 is None else w0
    cfg = ModelConfig.from_code(code, p=p, s=s, C=C, t0=t0, w0=w0, n=g.n,
                                sampling=sampling, seed=seed)
    return Problem(g, cfg)


def dumped(obj) -> str:
    """The text urnnet.cli._dump writes for obj."""
    buf = io.StringIO()
    _dump(obj, buf.write)
    return buf.getvalue()


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


def random_multi_component_arcs(rng: np.random.Generator, max_cycles=3, zero_in=0):
    """Arcs of a random weakly connected directed graph with several strongly
    connected components, relabelled at random: disjoint directed cycles of
    2-4 vertices (some with a chord), forward arcs from earlier to later
    cycles, sink vertices fed from the cycles, and `zero_in` extra vertices
    with out-arcs only (in-degree zero). A cycle that no forward arc enters
    is a source component, so there are often several."""
    cycles, arcs, n = [], set(), 0
    for _ in range(int(rng.integers(1, max_cycles + 1))):
        size = int(rng.integers(2, 5))
        cyc = list(range(n, n + size))
        n += size
        arcs |= {(cyc[i], cyc[(i + 1) % size]) for i in range(size)}
        if size > 2 and rng.random() < 0.3:
            u, v = rng.choice(cyc, size=2, replace=False)
            arcs.add((int(u), int(v)))
        cycles.append(cyc)

    def vertex(cycs):
        return int(rng.choice(cycs[int(rng.integers(len(cycs)))]))

    for i in range(1, len(cycles)):
        # join cycle i to an earlier one: a forward arc into it, or a shared sink
        if rng.random() < 0.5:
            arcs.add((vertex(cycles[:i]), vertex(cycles[i:i + 1])))
        else:
            arcs |= {(vertex(cycles[:i]), n), (vertex(cycles[i:i + 1]), n)}
            n += 1
    for _ in range(int(rng.integers(0, 3))):
        i = int(rng.integers(0, len(cycles)))
        j = int(rng.integers(0, len(cycles)))
        if i < j:
            arcs.add((vertex(cycles[i:i + 1]), vertex(cycles[j:j + 1])))
    for _ in range(int(rng.integers(0, 3))):
        arcs |= {(vertex(cycles), n) for _ in range(int(rng.integers(1, 3)))}
        n += 1
    for _ in range(zero_in):
        arcs.add((n, int(rng.integers(0, n))))
        n += 1
    label = rng.permutation(n)
    return sorted((int(label[u]), int(label[v])) for u, v in arcs)


def digraph(arcs):
    """Parse a list of (tail, head) arcs as a directed GraphSpec."""
    return parse_edge_list("\n".join(f"{u} {v}" for u, v in arcs), directed=True)


def draw_batch(problem, W, T, rng, ndraws: int):
    """ndraws independent sampling phases from one fixed state (W, T)
    through the step kernel methods simulate_ensemble calls, its coin < p
    included. Returns (source, Y, chi), each (ndraws, n), where chi =
    b0 s + lam Y is the count of white balls an urn's draw reinforces."""
    rng = np.random.default_rng(rng)
    n = problem.g.n
    coin = rng.random((ndraws, n))
    pick = rng.random((ndraws, n))
    draws = rng.random((ndraws, n, problem.cfg.s))
    kern = StepKernel(problem)
    src = kern.sources(coin < problem.cfg.p, pick)
    Y = kern.draw(np.broadcast_to(W, (ndraws, n)), T, src, draws)
    params = problem.params
    return src % n, Y, params.b0 * problem.cfg.s + params.lam * Y


def expected_chi(problem, W, T):
    """Conditional mean of chi given the state (W, T); the same for both
    sampling modes."""
    cfg = problem.cfg
    Z = W / T
    mix = cfg.p * Z + (1.0 - cfg.p) * (Z @ (problem.A / problem.deg[None, :]))
    if cfg.scheme == "polya":
        return cfg.s * mix
    return cfg.s * (1.0 - mix)


def reference_simulate(problem, steps, schedule, replicas, seed):
    """(K, R, n) W snapshots of simulate_ensemble's process, by plain per-step
    arithmetic: the source drawn every step, separate W and T gathers, a
    sum(axis=-1) count and separate self and neighbour reinforcement terms.
    It consumes the random stream in simulate_ensemble's block layout."""
    cfg, n, R = problem.cfg, problem.g.n, replicas
    eta, kappa, omega, _, _ = problem.params
    nbr_flat, deg = problem.g.in_neighbours
    nbr_off = np.cumsum(deg) - deg
    rng = np.random.default_rng(seed)
    times = parse_schedule(schedule, steps)
    W, T = np.tile(cfg.W0, (R, 1)), cfg.T0.copy()
    snaps = {0: W.copy()}
    block = max(1, min(128, _BLOCK_BUDGET // max(1, R * n * (2 + cfg.s))))
    t = 0
    while t < steps:
        b = min(block, steps - t)
        coin = rng.random((b, R, n))
        pick = rng.random((b, R, n))
        draws = rng.random((b, R, n, cfg.s))
        for j in range(b):
            src = np.where(coin[j] < cfg.p, np.arange(n),
                           nbr_flat[nbr_off + (pick[j] * deg).astype(np.int64)])
            Wsrc = W.ravel()[src + n * np.arange(R)[:, None]]
            Tsrc = T[src]
            if cfg.sampling == "with":
                Y = (draws[j] < (Wsrc / Tsrc)[..., None]).sum(axis=-1, dtype=np.int64)
            else:
                w_rem, t_rem = Wsrc.astype(float), Tsrc.astype(float)
                Y = np.zeros((R, n), np.int64)
                for k in range(cfg.s):
                    take = draws[j][..., k] < w_rem / t_rem
                    Y += take
                    w_rem -= take
                    t_rem -= 1.0
            chi = Y if cfg.scheme == "polya" else cfg.s - Y
            W += cfg.C * (eta * chi + kappa * np.add.reduceat(chi[:, nbr_flat], nbr_off, axis=1))
            T = T + cfg.C * cfg.s * omega
            t += 1
            snaps[t] = W.copy()
    return np.stack([snaps[int(t)] for t in times])


def reference_trajectory_csv(raw) -> str:
    """simulate --out's text for an EnsembleTrajectories, one %-format per
    row over whole-column lists: the trajectory writer's row format, kept as
    the oracle of the writer that formats each distinct (W, T) pair once."""
    _, R, n = raw.W.shape
    text = ["replica,t,urn,W,T,Z\n"]
    for k, t in enumerate(raw.times.tolist()):
        text += map("%d,%d,%d,%d,%d,%.12g\n".__mod__,
                    zip(np.repeat(np.arange(R), n).tolist(), [t] * (R * n), list(range(n)) * R,
                        raw.W[k].ravel().tolist(), raw.T[k].tolist() * R,
                        raw.Z[k].ravel().tolist()))
    return "".join(text)
