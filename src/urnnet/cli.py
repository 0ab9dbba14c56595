"""Command-line interface: analyze | simulate | verify | export-limit.

Exit codes: 0 success (verify: all criteria pass), 1 verification failure,
2 usage/config error, 3 I/O error. All reports are pure functions of the
input files and flags. The analyze and verify reports are built whole, then
streamed through one JSON writer, _dump: byte for byte
json.dumps(report, indent=2), with arrays as row-major lists at 12
significant digits, each distinct value formatted once. It writes one piece
per item and one per leaf row of an array, and at any moment holds, beside
the report, one array's inverse index and its distinct values' lines.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from itertools import count, repeat
from typing import Optional

import numpy as np

from . import experiments, theory
from .dynamics import MODEL_CODES, ModelConfig, check_keys, read_number, simulate_ensemble
from .errors import AssumptionViolatedError, ConfigError, NotApplicableError, UrnnetError
from .graphs import load_edge_file

EXIT_OK, EXIT_VERIFY_FAIL, EXIT_CONFIG, EXIT_IO = 0, 1, 2, 3


def sig12(x) -> float:
    return float(f"{float(x):.12g}")


# The longest number token: a sign, 12 digits, a point and a three-digit
# exponent. repr writes 1e15 <= |x| < 1e16 positionally in as many characters
# ("-1234567890120000.0"), and NaN and the infinities are shorter.
_TOKEN_WIDTH = len("-1.23456789012e-308")
# Distinct values formatted per step of _dump_array: bounds its temporaries.
_CHUNK = 4096


def _dump_array(a: np.ndarray, write, pad: str, lead: str) -> None:
    """_dump of a (ndim >= 1) as nested lists of sig12 values, one write per
    leaf row. Each distinct value is formatted once, _CHUNK at a time, into
    one fixed-width bytes array whose entries hold a value's whole line: its
    indentation, its token and ",\n", NUL-padded. Values are distinct by bit
    pattern first (-0.0 == 0.0, but the two print differently), then after
    rounding; np.unique sorts them, so values that round alike are adjacent
    and a chunk boundary splits at most one such run. A leaf row is the bytes
    of its entries, picked through the inverse index, without the padding."""
    bits, inv = np.unique(np.asarray(a, float).ravel().view(np.int64), return_inverse=True)
    values = bits.view(float)
    indent = pad + "  " * a.ndim
    lines = np.empty(len(values), "S%d" % (len(indent) + _TOKEN_WIDTH + 2))
    for i in range(0, len(values), _CHUNK):
        chunk = values[i:i + _CHUNK].tolist()
        rounded = ("%.12g " * len(chunk) % tuple(chunk)).split()
        distinct = list(dict.fromkeys(rounded))
        text = json.dumps(list(map(float, distinct)))[1:-1].replace(", ", ",\n" + indent)
        line = dict(zip(distinct, (indent + text + ",\n").encode().splitlines(keepends=True)))
        lines[i:i + _CHUNK] = list(map(line.__getitem__, rounded))
    _dump_rows(lines, inv.reshape(a.shape), write, pad, lead)


def _dump_rows(lines: np.ndarray, idx: np.ndarray, write, pad: str, lead: str) -> None:
    """_dump of the nested lists whose values' lines are lines[idx]."""
    if not len(idx):
        write(lead + "[]")
    elif idx.ndim == 1:
        body = lines[idx].tobytes().translate(None, b"\0").decode()
        write(lead + "[\n" + body[:-2] + "\n" + pad + "]")
    else:
        inner = pad + "  "
        for k, row in enumerate(idx):
            _dump_rows(lines, row, write, inner, (lead + "[\n" if k == 0 else ",\n") + inner)
        write("\n" + pad + "]")


_NUMBER_TYPES = {int, float, bool}


def _dump(obj, write, pad: str = "", lead: str = "") -> None:
    """Write exactly json.dumps(obj, indent=2), numpy arrays as lists of
    sig12 values, through write: one call per item of a dict or list and per
    leaf row of an array, so no whole report string is built.

    Before Python 3.14 an indent makes json fall back to its pure-Python
    encoder. Containers are walked here instead, and a list of plain
    numbers goes to the C encoder in one call: no number token contains
    ", ", so splitting its compact output there yields one item per line.
    pad is the indentation of the line obj starts on, and lead the text
    before obj on that line, written with obj's first piece; json escapes
    newlines inside strings, so any other value's own rendering is
    re-indented by prefixing pad to its line breaks.
    """
    if isinstance(obj, np.ndarray):
        return _dump_array(obj, write, pad, lead)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) <= _NUMBER_TYPES:
            write(lead + "[\n" + inner + json.dumps(obj)[1:-1].replace(", ", ",\n" + inner)
                  + "\n" + pad + "]")
            return
        for k, x in enumerate(obj):
            _dump(x, write, inner, (lead + "[\n" if k == 0 else ",\n") + inner)
        write("\n" + pad + "]")
        return
    if isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        for k, (key, value) in enumerate(obj.items()):
            _dump(value, write, inner,
                  (lead + "{\n" if k == 0 else ",\n") + inner + json.dumps(key) + ": ")
        write("\n" + pad + "}")
        return
    write(lead + json.dumps(obj, indent=2).replace("\n", "\n" + pad))


def _read_text(path, what: str) -> str:
    """The UTF-8 text of the file at path; ConfigError naming what when the
    file is not UTF-8 text."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{what} is not UTF-8 text: {exc}") from None


def _json_object(text: str, what: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{what}: expected a JSON object")
    return obj


# The keys a config file may hold: the settings the commands read from it;
# out, plan, stats_out and cov_out are flags only.
_CONFIG_KEYS = ("graph", "directed", "model", "p", "s", "c", "t0", "w0", "sampling", "seed",
                "steps", "replicas", "schedule")


def _load_config_file(path) -> dict:
    """Optional config file: JSON object or 'key = value' lines."""
    text = _read_text(path, f"config file {path}")
    if text.lstrip().startswith("{"):
        return _json_object(text, f"config file {path}")
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
        p.add_argument("--p", default=None, help="self-sampling probability")
        p.add_argument("--s", default=None, help="sample size per urn")
        p.add_argument("--c", default=None, help="reinforcement multiple")
        p.add_argument("--t0", default=None, help="initial totals (scalar or per-urn list)")
        p.add_argument("--w0", default=None, help="initial whites (scalar or per-urn list)")
        p.add_argument("--sampling", choices=("with", "without"), default=None)
        p.add_argument("--seed", default=None)
        p.add_argument("--out", help="output path (default: stdout)")

    pa = sub.add_parser("analyze", help="spectral/theory report as JSON")
    add_common(pa)

    ps = sub.add_parser("simulate", help="run replicas, write trajectory CSV")
    pv = sub.add_parser("verify", help="evaluate a criteria plan, exit 0 iff pass")
    for p in (ps, pv):
        add_common(p)
        p.add_argument("--steps", default=None)
        p.add_argument("--replicas", default=None)
        p.add_argument("--schedule", default=None, help="all | geometric(r) | t1,t2,...")
    ps.add_argument("--stats-out", help="also write per-urn mean/var CSV")
    ps.add_argument("--cov-out", help="also write pairwise covariance CSV")
    pv.add_argument("--plan", help="plan JSON file (default: built-in plan)")

    pe = sub.add_parser("export-limit", help="write the numerical limit set of h(z) = 0 as CSV")
    add_common(pe)
    return ap


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _load_problem(args) -> tuple:
    """(Problem, run settings): each setting is its flag, else the config
    file's, else its default. Numbers go through dynamics.read_number: the
    model's in ModelConfig.from_code, steps, replicas and seed here whatever
    the command, so a malformed config file fails every command."""
    opt = _load_config_file(args.config) if args.config else {}
    check_keys(f"config file {args.config}", opt, _CONFIG_KEYS)
    flags = {key: getattr(args, key, None) for key in _CONFIG_KEYS}
    opt.update({key: val for key, val in flags.items() if val is not None})
    graph_path = opt.get("graph")
    if not graph_path:
        raise UrnnetError("missing --graph")
    if not isinstance(graph_path, str):  # open() would take a number as a descriptor
        raise ConfigError(f"graph must be a file path, got {graph_path!r}")
    directed = opt.get("directed", False)
    if isinstance(directed, str):
        directed = _BOOLEANS.get(directed.strip().lower(), directed)
    if not isinstance(directed, bool):
        raise ConfigError(f"directed must be true or false, got {directed!r}")
    g = load_edge_file(graph_path, directed)

    model = opt.get("model")
    if not model:
        raise UrnnetError("missing --model")
    cfg = ModelConfig.from_code(model, p=opt.get("p", 0.5), s=opt.get("s", 2), C=opt.get("c", 1),
                                t0=opt.get("t0", 4), w0=opt.get("w0"), n=g.n,
                                sampling=opt.get("sampling", "with"), seed=opt.get("seed", 0))
    run = {key: read_number(opt[key], key) for key in ("steps", "replicas", "seed") if key in opt}
    if opt.get("schedule") is not None:
        run["schedule"] = opt["schedule"]
    return theory.Problem(g, cfg), run


@contextmanager
def _open_out(path: Optional[str]):
    """The file at path opened for writing, or stdout when path is empty."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _write_json(path: Optional[str], obj) -> None:
    """obj as _dump writes it, newline-terminated, to path or stdout."""
    with _open_out(path) as fh:
        _dump(obj, fh.write)
        fh.write("\n")


def _limit_set_json(ls: Optional[theory.LimitSet]):
    if ls is None:
        return None
    return {
        "kind": ls.kind,
        "particular": ls.particular,
        "basis": ls.basis,
        "parameter_box": ls.box,
    }


def cmd_analyze(args) -> int:
    problem, _ = _load_problem(args)
    cfg, g, sd, dm = problem.cfg, problem.g, problem.spectral, problem.drift
    jac_eigs, stable = theory.stability(dm)
    cls = problem.classification

    report = {
        "graph": {
            "n": g.n,
            "directed": g.directed,
            "edges": [list(e) for e in g.edges],
            "degrees": problem.deg,
            "bipartition": [sorted(part) for part in g.bipartition] if g.bipartition else None,
            "regular_degree": g.regular_degree,
            "scc_order": [sorted(c) for c in g.scc_order] if g.scc_order else None,
            "g1_is_odd_cycle": g.g1_is_odd_cycle,
        },
        "model": {
            "code": cfg.code, "p": sig12(cfg.p), "s": cfg.s, "C": cfg.C,
            "sampling": cfg.sampling, "T0": cfg.T0.tolist(), "W0": cfg.W0.tolist(),
        },
        "spectrum": {
            "eigenvalues_re": np.real(sd.eigenvalues),
            "eigenvalues_im": np.imag(sd.eigenvalues),
            "diagonalizable": sd.diagonalizable,
            "theta": sig12(sd.theta) if sd.theta is not None else None,
        },
        "drift": {
            "b": dm.b,
            "K": dm.K,
            "jacobian_eigenvalues_re": np.real(jac_eigs),
            "jacobian_eigenvalues_im": np.imag(jac_eigs),
            "stable": stable,
        },
        "classification": {
            "applicable_theorem": cls.applicable_theorem,
            "assumptions_checked": [[name, bool(ok)] for name, ok in cls.assumptions_checked],
        },
        "limit_set": _limit_set_json(problem.predicted_limit),
    }
    if cfg.scheme == "friedman":
        try:
            rep = problem.fluctuation
            report["fluctuation"] = {
                "rho": sig12(rep.rho),
                "regime": rep.regime,
                "closed_form": rep.closed_form,
                "near_critical": rep.near_critical,
                "Gamma": rep.Gamma,
                "Sigma": rep.Sigma,
                "SigmaTilde": rep.SigmaTilde,
            }
        except UrnnetError as exc:
            report["fluctuation"] = {"unavailable": str(exc)}
    else:
        report["fluctuation"] = None
    try:
        dp = problem.decay
        report["decay"] = {
            "mean_exponent": sig12(dp.mean_exponent),
            "variance_exponent": sig12(dp.variance_exponent),
            "log_correction": dp.log_correction,
        }
    except NotApplicableError as exc:
        report["decay"] = {"unavailable": str(exc)}
    except AssumptionViolatedError:  # I + A D^-1 is defective or theta is undefined
        pass
    del problem  # the report holds what it prints; free A, ADi and R before writing it
    _write_json(args.out, report)
    return EXIT_OK


def _csv_rows(fmt: str, *cols) -> str:
    """fmt (newline-terminated) applied to the rows of whole-column lists."""
    return "".join(map(fmt.__mod__, zip(*cols)))


def _write_trajectories(fh, raw) -> None:
    """The rows replica,t,urn,W,T,Z of every snapshot of raw, one fh.write
    per snapshot, so no file's whole text is held in memory. A row joins
    four tokens: "replica," and ",urn," made once per run, the snapshot's t,
    and its (W, T) pair's "W,T,Z" tail. Each distinct pair of a snapshot is
    found by exact int64 comparison and formatted once, its Z the float64
    W / T, as EnsembleTrajectories.fractions computes it."""
    _, replicas, n = raw.W.shape
    tokens = np.empty((replicas, n, 4), dtype=object)
    tokens[..., 0] = np.array(["%d," % r for r in range(replicas)], dtype=object)[:, None]
    tokens[..., 2] = np.array([",%d," % i for i in range(n)], dtype=object)
    fh.write("replica,t,urn,W,T,Z\n")
    for t, W, T in zip(raw.times.tolist(), raw.W, raw.T):
        W, T = W.ravel(), np.tile(T, replicas)
        order = np.lexsort((W, T))
        W, T = W[order], T[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (W[1:] != W[:-1]) | (T[1:] != T[:-1])
        pair = np.empty_like(order)
        pair[order] = np.cumsum(first) - 1
        W, T = W[first], T[first]
        tails = map("%d,%d,%.12g\n".__mod__, zip(W.tolist(), T.tolist(), (W / T).tolist()))
        tokens[..., 1] = "%d" % t
        tokens[..., 3] = np.array(list(tails), dtype=object)[pair].reshape(replicas, n)
        fh.write("".join(tokens.ravel().tolist()))


def cmd_simulate(args) -> int:
    problem, run = _load_problem(args)
    n = problem.g.n
    steps, replicas = run.get("steps", 1000), run.get("replicas", 1)
    start = time.perf_counter()
    raw = simulate_ensemble(problem, steps, schedule=run.get("schedule"), replicas=replicas)
    times = raw.times.tolist()
    urns = list(range(n))
    with _open_out(args.out) as fh:
        _write_trajectories(fh, raw)
    if args.stats_out:
        with _open_out(args.stats_out) as fh:
            fh.write("t,urn,mean,var\n")
            for k, t in enumerate(times):
                Z = raw.fractions(k)
                var = Z.var(axis=0, ddof=1) if replicas > 1 else np.zeros(n)
                fh.write(_csv_rows("%d,%d,%.12g,%.12g\n", repeat(t), urns,
                                   Z.mean(axis=0).tolist(), var.tolist()))
    if args.cov_out:
        with _open_out(args.cov_out) as fh:
            fh.write("t,urn_i,urn_j,cov\n")
            row_i, col_j = np.repeat(urns, n).tolist(), urns * n
            for k, t in enumerate(times):
                c = np.cov(raw.fractions(k).T, ddof=1) if replicas > 1 else np.zeros((n, n))
                fh.write(_csv_rows("%d,%d,%d,%.12g\n", repeat(t), row_i, col_j,
                                   np.ravel(c).tolist()))
    elapsed = time.perf_counter() - start
    final_mean = raw.fractions(-1).mean(axis=0)
    sys.stderr.write("simulated %d replicas x %d steps in %.2fs; final mean Z = %s\n"
                     % (replicas, steps, elapsed, np.array2string(final_mean, precision=6)))
    return EXIT_OK


def cmd_verify(args) -> int:
    problem, run = _load_problem(args)
    if args.plan:
        what = f"plan file {args.plan}"
        plan = _json_object(_read_text(args.plan, what), what)
    else:
        plan = experiments.default_plan(problem)
    plan.update(run)
    report = experiments.verify(problem, plan)
    _write_json(args.out, report)
    return EXIT_OK if report["overall_pass"] else EXIT_VERIFY_FAIL


def cmd_export_limit(args) -> int:
    problem, _ = _load_problem(args)
    # the numerical solution set, which analyze's limit_set may not print:
    # that is None with no predicted limit and the point 1/2 1 for a 'point'
    # limit, whatever the rank of K
    ls = theory.limit_set(problem.drift)
    with _open_out(args.out) as fh:
        fh.write("vector,component,value\n")
        fh.write(_csv_rows("particular,%d,%.12g\n", count(), ls.particular.tolist()))
        for k in range(ls.dimension):
            fh.write(_csv_rows(f"basis{k},%d,%.12g\n", count(), ls.basis[k].tolist()))
            if ls.box is not None:
                fh.write("basis%d,lo,%.12g\nbasis%d,hi,%.12g\n"
                         % (k, ls.box[k, 0], k, ls.box[k, 1]))
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
