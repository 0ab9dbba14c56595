"""Command-line interface: analyze | simulate | verify | export-limit.

Exit codes: 0 success (verify: all criteria pass), 1 verification failure,
2 usage/config error, 3 I/O error. All reports are pure functions of the
input files and flags; matrices are serialized row-major with 12 significant
digits.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

import numpy as np

from . import experiments, theory
from .dynamics import MODEL_CODES, ModelConfig, simulate_ensemble
from .errors import UrnnetError
from .graphs import load_edge_file

EXIT_OK, EXIT_VERIFY_FAIL, EXIT_CONFIG, EXIT_IO = 0, 1, 2, 3


def sig12(x) -> float:
    return float(f"{float(x):.12g}")


def _fmt_vector(v) -> list:
    return [sig12(x) for x in np.asarray(v).ravel()]


def _fmt_matrix(M) -> list:
    return [[sig12(x) for x in row] for row in np.asarray(M)]


def _parse_int_list(text: str, n: int) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        vals = [int(p) for p in parts]
    except ValueError:
        raise UrnnetError(f"expected integers, got {text!r}") from None
    if len(vals) == 1:
        return np.full(n, vals[0], dtype=np.int64)
    if len(vals) != n:
        raise UrnnetError(f"expected 1 or {n} values, got {len(vals)} in {text!r}")
    return np.asarray(vals, dtype=np.int64)


def _load_config_file(path) -> dict:
    """Optional config file: JSON object or 'key = value' lines."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UrnnetError(f"config line {lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = val
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="urnnet",
                                 description="Interacting two-colour urns on finite graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="optional config file (JSON or key=value)")
        p.add_argument("--graph", help="edge-list file (u v per line, '#' comments)")
        p.add_argument("--directed", action="store_true", default=None)
        p.add_argument("--model", choices=sorted(MODEL_CODES), help="model code")
        p.add_argument("--p", type=float, default=None, help="self-sampling probability")
        p.add_argument("--s", type=int, default=None, help="sample size per urn")
        p.add_argument("--c", type=int, default=None, help="reinforcement multiple")
        p.add_argument("--t0", default=None, help="initial totals (scalar or per-urn list)")
        p.add_argument("--w0", default=None, help="initial whites (scalar or per-urn list)")
        p.add_argument("--sampling", choices=("with", "without"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output path (default: stdout)")

    pa = sub.add_parser("analyze", help="spectral/theory report as JSON")
    add_common(pa)

    ps = sub.add_parser("simulate", help="run replicas, write trajectory CSV")
    add_common(ps)
    ps.add_argument("--steps", type=int, default=None)
    ps.add_argument("--replicas", type=int, default=None)
    ps.add_argument("--schedule", default=None, help="all | geometric(r) | t1,t2,...")
    ps.add_argument("--stats-out", help="also write per-urn mean/var CSV")
    ps.add_argument("--cov-out", help="also write pairwise covariance CSV")

    pv = sub.add_parser("verify", help="evaluate a criteria plan, exit 0 iff pass")
    add_common(pv)
    pv.add_argument("--plan", help="plan JSON file (default: built-in plan)")
    pv.add_argument("--steps", type=int, default=None)
    pv.add_argument("--replicas", type=int, default=None)
    pv.add_argument("--schedule", default=None)

    pe = sub.add_parser("export-limit", help="dump the predicted limit-set basis as CSV")
    add_common(pe)
    return ap


def _resolve(args, key, file_cfg, default=None):
    """Flag value if given, else config-file value, else default."""
    val = getattr(args, key, None)
    if val is None:
        val = file_cfg.get(key, default)
    return val


def _load_problem(args) -> tuple:
    """(Problem, config-file dict) from the flags and the optional config file."""
    file_cfg = _load_config_file(args.config) if args.config else {}
    graph_path = _resolve(args, "graph", file_cfg)
    if not graph_path:
        raise UrnnetError("missing --graph")
    directed = _resolve(args, "directed", file_cfg, default=False)
    if isinstance(directed, str):
        directed = directed.strip().lower() in ("1", "true", "yes")
    g = load_edge_file(graph_path, bool(directed))

    model = _resolve(args, "model", file_cfg)
    if not model:
        raise UrnnetError("missing --model")
    try:
        p = float(_resolve(args, "p", file_cfg, default=0.5))
        s = int(_resolve(args, "s", file_cfg, default=2))
        C = int(_resolve(args, "c", file_cfg, default=1))
        seed = int(_resolve(args, "seed", file_cfg, default=0))
    except (TypeError, ValueError) as exc:
        raise UrnnetError(f"bad numeric option: {exc}")
    sampling = _resolve(args, "sampling", file_cfg, default="with")
    T0 = _parse_int_list(str(_resolve(args, "t0", file_cfg, default="4")), g.n)
    w0_raw = _resolve(args, "w0", file_cfg)
    W0 = _parse_int_list(str(w0_raw), g.n) if w0_raw is not None else T0 // 2
    cfg = ModelConfig.from_code(model, p=p, s=s, C=C, t0=T0, w0=W0, n=g.n,
                                sampling=sampling, seed=seed)
    return theory.Problem(g, cfg), file_cfg


def _write_text(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _limit_set_json(ls: Optional[theory.LimitSet]):
    if ls is None:
        return None
    return {
        "kind": ls.kind,
        "particular": _fmt_vector(ls.particular),
        "basis": _fmt_matrix(ls.basis) if ls.dimension else [],
        "parameter_box": _fmt_matrix(ls.box) if ls.box is not None else None,
    }


def cmd_analyze(args) -> int:
    problem, _ = _load_problem(args)
    cfg, g, ga, sd, dm = (problem.cfg, problem.g, problem.analysis, problem.spectral,
                          problem.drift)
    jac_eigs, stable = theory.stability(dm)
    cls = problem.classification

    report = {
        "graph": {
            "n": g.n,
            "directed": g.directed,
            "edges": [list(e) for e in g.edges],
            "degrees": _fmt_vector(problem.deg),
            "bipartition": [sorted(part) for part in ga.bipartition] if ga.bipartition else None,
            "regular_degree": ga.regular_degree,
            "scc_order": [sorted(c) for c in ga.scc_order] if ga.scc_order else None,
            "g1_is_odd_cycle": ga.g1_is_odd_cycle,
        },
        "model": {
            "code": cfg.model_code, "p": sig12(cfg.p), "s": cfg.s, "C": cfg.C,
            "sampling": cfg.sampling, "T0": cfg.T0.tolist(), "W0": cfg.W0.tolist(),
        },
        "spectrum": {
            "eigenvalues_re": _fmt_vector(np.real(sd.eigenvalues)),
            "eigenvalues_im": _fmt_vector(np.imag(sd.eigenvalues)),
            "diagonalizable": sd.diagonalizable,
            "theta": sig12(sd.theta) if sd.theta is not None else None,
        },
        "drift": {
            "b": _fmt_vector(dm.b),
            "K": _fmt_matrix(dm.K),
            "jacobian_eigenvalues_re": _fmt_vector(np.real(jac_eigs)),
            "jacobian_eigenvalues_im": _fmt_vector(np.imag(jac_eigs)),
            "stable": stable,
        },
        "classification": {
            "applicable_theorem": cls.applicable_theorem,
            "assumptions_checked": [[name, bool(ok)] for name, ok in cls.assumptions_checked],
        },
        "limit_set": _limit_set_json(cls.predicted_limit),
    }
    if cfg.is_friedman:
        try:
            rep = problem.fluctuation
            report["fluctuation"] = {
                "rho": sig12(rep.rho),
                "regime": rep.regime,
                "closed_form": rep.closed_form,
                "near_critical": rep.near_critical,
                "Gamma": _fmt_matrix(rep.Gamma),
                "Sigma": _fmt_matrix(rep.Sigma) if rep.Sigma is not None else None,
                "SigmaTilde": _fmt_matrix(rep.SigmaTilde) if rep.SigmaTilde is not None else None,
            }
        except UrnnetError as exc:
            report["fluctuation"] = {"unavailable": str(exc)}
    else:
        report["fluctuation"] = None
    if sd.theta is not None and sd.diagonalizable and not np.iscomplexobj(sd.eigenvalues):
        dp = theory.decay_exponents(sd)
        report["decay"] = {
            "mean_exponent": sig12(dp.mean_exponent),
            "variance_exponent": sig12(dp.variance_exponent),
            "log_correction": dp.log_correction,
        }
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    problem, file_cfg = _load_problem(args)
    cfg, g = problem.cfg, problem.g
    try:
        steps = int(_resolve(args, "steps", file_cfg, default=1000))
        replicas = int(_resolve(args, "replicas", file_cfg, default=1))
    except (TypeError, ValueError) as exc:
        raise UrnnetError(f"bad numeric option: {exc}")
    schedule = _resolve(args, "schedule", file_cfg, default="geometric(1.2)")
    start = time.perf_counter()
    raw = simulate_ensemble(problem, steps, schedule=schedule, replicas=replicas,
                            rng=cfg.seed)
    lines = ["replica,t,urn,W,T,Z"]
    for k, t in enumerate(raw.times):
        for r in range(replicas):
            for i in range(g.n):
                lines.append("%d,%d,%d,%d,%d,%.12g"
                             % (r, t, i, raw.W[k, r, i], raw.T[k, i], raw.Z[k, r, i]))
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.stats_out or args.cov_out:
        mean = raw.Z.mean(axis=1)
        var = raw.Z.var(axis=1, ddof=1) if replicas > 1 else np.zeros_like(mean)
        if args.stats_out:
            rows = ["t,urn,mean,var"]
            for k, t in enumerate(raw.times):
                for i in range(g.n):
                    rows.append("%d,%d,%.12g,%.12g" % (t, i, mean[k, i], var[k, i]))
            _write_text(args.stats_out, "\n".join(rows) + "\n")
        if args.cov_out:
            rows = ["t,urn_i,urn_j,cov"]
            for k, t in enumerate(raw.times):
                c = np.cov(raw.Z[k].T, ddof=1) if replicas > 1 else np.zeros((g.n, g.n))
                c = np.atleast_2d(c)
                for i in range(g.n):
                    for j in range(g.n):
                        rows.append("%d,%d,%d,%.12g" % (t, i, j, c[i, j]))
            _write_text(args.cov_out, "\n".join(rows) + "\n")
    elapsed = time.perf_counter() - start
    final_mean = raw.Z[-1].mean(axis=0)
    sys.stderr.write("simulated %d replicas x %d steps in %.2fs; final mean Z = %s\n"
                     % (replicas, steps, elapsed, np.array2string(final_mean, precision=6)))
    return EXIT_OK


def cmd_verify(args) -> int:
    problem, file_cfg = _load_problem(args)
    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan = json.load(fh)
    else:
        plan = experiments.default_plan()
    for key in ("steps", "replicas", "schedule"):
        val = _resolve(args, key, file_cfg)
        if val is not None:
            plan[key] = val
    report = experiments.verify(problem, plan)
    payload = {
        "overall_pass": report.overall_pass,
        "criteria": [
            {
                "criterion": e.criterion,
                "theoretical": e.theoretical,
                "empirical": e.empirical,
                "tolerance": e.tolerance,
                "pass": e.passed,
                "note": e.note,
            }
            for e in report.entries
        ],
    }
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAIL


def cmd_export_limit(args) -> int:
    problem, _ = _load_problem(args)
    ls = problem.classification.predicted_limit
    if ls is None:
        ls = theory.limit_set(problem.drift)
    rows = ["vector,component,value"]
    for i, x in enumerate(ls.particular):
        rows.append("particular,%d,%.12g" % (i, x))
    for k in range(ls.dimension):
        for i, x in enumerate(ls.basis[k]):
            rows.append("basis%d,%d,%.12g" % (k, i, x))
        if ls.box is not None:
            rows.append("basis%d,lo,%.12g" % (k, ls.box[k, 0]))
            rows.append("basis%d,hi,%.12g" % (k, ls.box[k, 1]))
    _write_text(args.out, "\n".join(rows) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "analyze": cmd_analyze,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
        "export-limit": cmd_export_limit,
    }[args.command]
    try:
        return handler(args)
    except UrnnetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
