"""Workloads of the urnnet benchmark: seeded inputs, command lines, output checks.

Each workload is one `urnnet` CLI invocation. The benchmark writes the
graph files itself from the workload seed and hands `urnnet` only those
files and flags. Every output is checked: in full for the first successful
invocation of a run, and by SHA-256 for the others, which must be
byte-identical because the inputs are (README determinism contract).
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# Flags shared by every workload. The checks below rely on them, so they are
# passed explicitly rather than left to the CLI defaults.
P, S, C, T0, W0 = 0.5, 2, 1, 4, 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str         # urnnet subcommand
    graph: str           # "cycle<n>" or "grid<k>"
    model: str
    replicas: int = 0
    steps: int = 0
    stats: bool = False  # also write --stats-out


WORKLOADS = {w.name: w for w in (
    # The paper's main use: the default convergence + manifold plan. At n=5
    # the per-step sampling overhead does the work, so this is the guard
    # workload for any reinforcement-kernel or writer change.
    Workload("verify-c5", "verify", "cycle5", "ftsnr", replicas=64, steps=10_000),
    # n=1024: the dense O(R n^2) reinforcement product does most of the
    # work, and the CSV writer formats K*R*n = 10*16*1024 rows beside it.
    Workload("simulate-grid32-stats", "simulate", "grid32", "ftnr", replicas=16, steps=10,
             stats=True),
    # No simulation: spectral, theory (stability, classification, Lyapunov)
    # and JSON formatting of n x n matrices at n=400.
    Workload("analyze-grid20", "analyze", "grid20", "ftsnr"),
)}


def graph_edges(spec: str) -> list:
    """Canonical undirected edge list of a cycle or a k x k grid."""
    if spec.startswith("cycle"):
        n = int(spec[5:])
        return [(i, (i + 1) % n) for i in range(n)]
    k = int(spec[4:])
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k:
                edges.append((v, v + k))
    return edges


def write_graph(spec: str, seed: int, path: Path) -> np.ndarray:
    """Write the graph with line order and edge orientation drawn from seed.

    urnnet canonicalises edges, so every seed describes the same graph.
    Returns the degree vector.
    """
    rng = random.Random(seed)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph_edges(spec)]
    rng.shuffle(edges)
    path.write_text("# generated by the urnnet benchmark, seed %d\n" % seed
                    + "".join("%d %d\n" % e for e in edges))
    n = 1 + max(max(e) for e in edges)
    deg = np.zeros(n, np.int64)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def argv(wl: Workload, graph: Path, seed: int, outdir: Path) -> list:
    args = [wl.command, "--graph", str(graph), "--model", wl.model,
            "--p", str(P), "--s", str(S), "--c", str(C), "--t0", str(T0),
            "--w0", str(W0), "--seed", str(seed), "--out", str(outdir / "out")]
    if wl.replicas:
        args += ["--replicas", str(wl.replicas), "--steps", str(wl.steps)]
    if wl.stats:
        args += ["--stats-out", str(outdir / "stats")]
    return args


def output_names(wl: Workload) -> tuple:
    return ("out", "stats") if wl.stats else ("out",)


def digests(wl: Workload, outdir: Path) -> dict:
    """SHA-256 of each output file; a missing file maps to None."""
    out = {}
    for name in output_names(wl):
        p = outdir / name
        out[name] = hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
    return out


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds

def check(wl: Workload, deg: np.ndarray, seed: int, outdir: Path) -> list:
    try:
        if wl.command == "simulate":
            problems = _check_simulate(wl, deg, outdir)
        elif wl.command == "analyze":
            problems = _check_analyze(wl, outdir)
        else:
            problems = _check_verify(wl, outdir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    recorded = REFERENCE["sha256"].get(wl.name)
    if not problems and recorded and seed == REFERENCE["seed"]:
        got = digests(wl, outdir)
        problems += [f"{k}: SHA-256 {got[k]} differs from the recorded {v}"
                     for k, v in recorded.items() if got[k] != v]
    return problems


def geometric_times(steps: int, r: float = 1.2) -> np.ndarray:
    ts, t = {0, steps}, 1.0
    while t <= steps:
        ts.add(int(t))
        t *= r
    return np.array(sorted(ts))


def _read_csv(path: Path, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
        return np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)


def _close(a, b, rel=1e-9) -> bool:
    """|a - b| <= rel * max|b|, elementwise over arrays."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * np.max(np.abs(b))))


def _check_simulate(wl: Workload, deg: np.ndarray, outdir: Path) -> list:
    n, R = len(deg), wl.replicas
    times = geometric_times(wl.steps)  # the CLI's default schedule, geometric(1.2)
    K = len(times)
    rows = _read_csv(outdir / "out", "replica,t,urn,W,T,Z")
    if len(rows) != K * R * n:
        return [f"out: {len(rows)} rows, expected K*R*n = {K}*{R}*{n}"]
    rep, t, urn, W, T, Z = rows.T
    problems = []
    if not (np.array_equal(rep, np.tile(np.repeat(np.arange(R), n), K))
            and np.array_equal(t, np.repeat(times, R * n))
            and np.array_equal(urn, np.tile(np.arange(n), K * R))):
        problems.append("out: replica/t/urn columns are not in (t, replica, urn) order")
    # The simulate workloads run ftnr, which adds C*s*deg_i balls to urn i per step.
    T_expected = T0 + C * S * np.outer(times, deg)
    if not np.array_equal(T.reshape(K, R, n), np.broadcast_to(T_expected[:, None, :], (K, R, n))):
        problems.append("out: T differs from T0 + C*s*omega*t")
    if np.any(W < 0) or np.any(W > T):
        problems.append("out: W outside [0, T]")
    exact = W / T
    bad = sum(float(f"{x:.12g}") != z for x, z in zip(exact.tolist(), Z.tolist()))
    if bad:
        problems.append(f"out: Z differs from W/T at 12 significant digits in {bad} rows")
    if problems or not wl.stats:
        return problems

    Zk = exact.reshape(K, R, n)
    stats = _read_csv(outdir / "stats", "t,urn,mean,var")
    if len(stats) != K * n:
        problems.append(f"stats: {len(stats)} rows, expected K*n = {K}*{n}")
    elif not (np.array_equal(stats[:, :2], np.column_stack([np.repeat(times, n),
                                                             np.tile(np.arange(n), K)]))
              and _close(stats[:, 2], Zk.mean(axis=1).ravel())
              and _close(stats[:, 3], Zk.var(axis=1, ddof=1).ravel())):
        problems.append("stats: t/urn/mean/var differ from the trajectories beyond 1e-9")
    return problems


def _lyapunov_residual(sigma: np.ndarray, n: int) -> float:
    """Relative residual of S^T X + X S = -N for the grid ftsnr model.

    Built from the model definition, independently of urnnet.theory:
    K = -(P~ (A+I)(D+I)^-1 + I), S = K + I/2, N = M^T M / (4s) with
    M = (I + A)(D+I)^-1.
    """
    A = np.zeros((n, n))
    for u, v in graph_edges("grid%d" % math.isqrt(n)):
        A[u, v] = A[v, u] = 1.0
    deg = A.sum(axis=0)
    I = np.eye(n)
    Ptil = P * I + (1 - P) * A / deg[None, :]
    M = (A + I) / (deg + 1.0)[None, :]
    S_ = -(Ptil @ M + I) + 0.5 * I
    N = M.T @ M / (4.0 * S)
    return float(np.linalg.norm(S_.T @ sigma + sigma @ S_ + N) / np.linalg.norm(N))


def _check_analyze(wl: Workload, outdir: Path) -> list:
    rep = json.loads((outdir / "out").read_text())
    ref = REFERENCE[wl.name]
    problems = []
    if rep["classification"]["applicable_theorem"] != ref["applicable_theorem"]:
        problems.append("applicable_theorem %r, recorded %r"
                        % (rep["classification"]["applicable_theorem"], ref["applicable_theorem"]))
    got = {"theta": rep["spectrum"]["theta"], "rho": rep["fluctuation"]["rho"]}
    sigma = np.asarray(rep["fluctuation"]["Sigma"], float)
    got["Sigma_trace"] = float(np.trace(sigma))
    got["Sigma_frobenius"] = float(np.linalg.norm(sigma))
    problems += [f"{k} = {v!r}, recorded {ref[k]!r}" for k, v in got.items()
                 if not _close(v, ref[k])]
    resid = _lyapunov_residual(sigma, len(sigma))
    if not resid <= 1e-9:
        problems.append(f"Sigma misses its Lyapunov equation: relative residual {resid:.3g}")
    return problems


def _check_verify(wl: Workload, outdir: Path) -> list:
    rep = json.loads((outdir / "out").read_text())
    expected = {f"convergence@t={wl.steps}": 0.5, f"manifold@t={wl.steps}": 0.0}
    problems = []
    if [e["criterion"] for e in rep["criteria"]] != list(expected):
        problems.append(f"criteria {[e['criterion'] for e in rep['criteria']]}, "
                        f"expected {list(expected)}")
    for e in rep["criteria"]:
        if not (e["pass"] is True and e["tolerance"] == 0.05
                and e["theoretical"] == expected.get(e["criterion"])
                and 0.0 <= e["empirical"] <= e["tolerance"]):
            problems.append(f"criterion {e['criterion']} does not pass as reported: {e}")
    if rep["overall_pass"] is not True:
        problems.append("overall_pass is not true")
    return problems


# Where the self-check changes one digit: the first digit after the anchor.
CORRUPT_AFTER = {"simulate": "\n0,0,0,", "analyze": '"theta": ',
                 "verify": '"criterion": "convergence@t='}


def corrupt_copy(wl: Workload, src: Path, dst: Path) -> None:
    """Copy the outputs of src to dst with one digit of the main output changed."""
    dst.mkdir()
    for name in output_names(wl):
        (dst / name).write_bytes((src / name).read_bytes())
    text = (src / "out").read_text()
    i = text.index(CORRUPT_AFTER[wl.command]) + len(CORRUPT_AFTER[wl.command])
    while not text[i].isdigit():
        i += 1
    (dst / "out").write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])
