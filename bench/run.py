"""The urnnet benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's `urnnet` command as fresh child processes, one at a
time, for S seconds, with BLAS/OpenMP threads pinned to 1, and checks every
output. Prints each metric by name with its unit, the environment, and, as
the last line, one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The --trace 1 run follows every third invocation with a traced in-process
one (bench/spans.py) and reports the median per-layer values and the
tracing overhead. Results are also written to bench/results/. See
bench/README.md for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as W
from spans import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_INVOCATIONS = 5
PROBE_EVERY = 2
TRACE_EVERY = 3
CHILD_TIMEOUT_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# (name, unit) of the per-layer metrics; bench/README.md says which
# end-to-end metric each should move, and on which workload.
LAYER_METRICS = (
    ("dynamics.simulate_ensemble.s", "s"),
    ("dynamics.ns_per_urn_step", "ns"),
    ("cli.simulate.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.rows_written", "count"),
    ("spectral.eigendecompose.s", "s"),
    ("spectral.eigendecompose.calls", "count"),
    ("theory.stability.s", "s"),
    ("theory.classify.s", "s"),
    ("theory.classify.calls", "count"),
    ("theory.limit_set.calls", "count"),
    ("theory.drift_model.calls", "count"),
    ("theory.fluctuation.self_s", "s"),
    ("theory.decay_exponents.s", "s"),
    ("graphs.matrices.s", "s"),
    ("graphs.matrices.calls", "count"),
    ("cli.analyze.self_s", "s"),
    ("experiments.ensemble.self_s", "s"),
    ("experiments.ensemble.calls", "count"),
    ("experiments.verify.self_s", "s"),
    ("import.urnnet_cli.s", "s"),
    ("trace.overhead_s", "s"),
)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({v: "1" for v in THREAD_VARS})
    return env


def spawn(args: list, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run one child to completion; return (wall_s, peak_rss_mb, exit_code).

    Wall time runs from spawn to exit. Peak RSS comes from this child's own
    rusage (wait4); RUSAGE_CHILDREN would keep a maximum over all children.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=stdout, stderr=stderr)
    try:
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], CHILD_TIMEOUT_S)
        finally:
            os.close(fd)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def describe(samples: list) -> dict:
    """Median, the highest percentile with at least ten samples above it, count."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs)}
    if len(xs) > 10:
        j = len(xs) - 11
        out[f"p{100 * (j + 1) // len(xs)}"] = xs[j]
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(cfg):
        return cfg.get("Build Dependencies", {}).get("blas", {}).get("version")

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, check=False)
        commit = r.stdout.strip() or None
    source = hashlib.sha256()
    for p in sorted((SRC / "urnnet").glob("*.py")):
        source.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.show_config(mode="dicts")),
        "scipy_openblas": blas(scipy.show_config(mode="dicts")),
        "pinned_threads": {v: "1" for v in THREAD_VARS},
        "git_commit": commit,
        "urnnet_source_sha256": source.hexdigest(),
        "seed": seed,
    }


class Run:
    """One benchmark run of one workload: inputs, invocations and judgement."""

    def __init__(self, wl, seed: int, work: Path):
        self.wl, self.seed, self.work = wl, seed, work
        self.graph = work / "graph.edges"
        self.deg = W.write_graph(wl.graph, seed, self.graph)
        self.count = 0
        self.reference = None    # (outdir, digests) of the first successful invocation
        self.reference_problems = []
        self.attempted = self.failed = 0
        self.problems = []

    def argv(self, outdir: Path) -> list:
        return W.argv(self.wl, self.graph, self.seed, outdir)

    def fresh_outdir(self) -> Path:
        self.count += 1
        d = self.work / f"out{self.count}"
        d.mkdir()
        return d

    def judge(self, code: int, outdir: Path) -> list:
        """Problems of one invocation; the first good one is checked in full."""
        if code != 0:
            return [f"exit code {code}"]
        got = W.digests(self.wl, outdir)
        if self.reference is None:
            self.reference = (outdir, got)
            self.reference_problems = W.check(self.wl, self.deg, self.seed, outdir)
            return self.reference_problems
        if got != self.reference[1]:
            return ["output is not byte-identical to the first invocation's"]
        return self.reference_problems

    def record(self, code: int, outdir: Path) -> None:
        problems = self.judge(code, outdir)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"invocation {self.count}: " + "; ".join(problems))
        if self.reference is None or outdir != self.reference[0]:
            shutil.rmtree(outdir)

    def self_check(self) -> list:
        """The checks must reject a one-digit corruption and a non-zero exit."""
        if self.reference is None:
            return ["no successful invocation to self-check against"]
        bad = self.work / "corrupted"
        W.corrupt_copy(self.wl, self.reference[0], bad)
        problems = []
        if not W.check(self.wl, self.deg, self.seed, bad):
            problems.append("a one-digit corruption of the output passed the checks")
        if not self.judge(1, self.reference[0]):
            problems.append("a non-zero exit passed the checks")
        return problems


def probe_setup(run: Run) -> tuple:
    """One set-up probe: (wall_s, seconds spent importing urnnet.cli)."""
    with tempfile.TemporaryFile("w+", dir=run.work) as out:
        wall, _, code = spawn([sys.executable, str(HERE / "probe_setup.py"),
                               str(run.graph), run.wl.model], stdout=out)
        out.seek(0)
        text = out.read()
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    info = json.loads(text.strip().splitlines()[-1])
    if Path(info["urnnet_file"]).resolve().parent != (SRC / "urnnet").resolve():
        raise RuntimeError(f"urnnet imported from {info['urnnet_file']}, not from {SRC}")
    return wall, info["import_s"]


def measure(run: Run, seconds: float, trace: bool) -> tuple:
    """Invocations for about `seconds`, with a set-up probe before every other one.

    With `trace`, every third invocation is followed by a traced one. Spreading
    probes and traced runs over the run, rather than bunching them, keeps
    their medians from hanging on one moment of machine speed. Returns the
    samples and the per-layer values of each traced invocation.
    """
    samples = {"wall_s": [], "peak_rss_mb": [], "setup_s": [], "import_s": [],
               "traced_wall_s": []}
    layers = []
    walls = samples["wall_s"]
    start = time.perf_counter()
    # Start another invocation while it is expected to end within `seconds`.
    while (len(walls) < MIN_INVOCATIONS
           or time.perf_counter() - start + statistics.median(walls) <= seconds):
        if len(walls) % PROBE_EVERY == 0:
            wall, import_s = probe_setup(run)
            samples["setup_s"].append(wall)
            samples["import_s"].append(import_s)
        outdir = run.fresh_outdir()
        wall, peak, code = spawn([sys.executable, "-m", "urnnet.cli"] + run.argv(outdir))
        walls.append(wall)
        samples["peak_rss_mb"].append(peak)
        run.record(code, outdir)
        if trace and len(walls) % TRACE_EVERY == 0:
            wall, values = traced(run)
            samples["traced_wall_s"].append(wall)
            layers.append(values)
    return samples, layers


def traced(run: Run) -> tuple:
    """One in-process traced invocation: (wall_s, its per-layer values)."""
    outdir = run.fresh_outdir()
    spans_path = run.work / "spans.json"
    spans_path.unlink(missing_ok=True)
    wall, _, code = spawn([sys.executable, str(HERE / "spans.py"), str(spans_path)]
                          + run.argv(outdir))
    written = [p.read_bytes() for p in (outdir / name for name in W.output_names(run.wl))
               if p.is_file()]
    run.record(code, outdir)
    stats = summarize(json.loads(spans_path.read_text())["spans"]
                      if spans_path.is_file() else [])

    def get(name, field):
        return stats.get(name, {}).get(field, 0)

    urn_steps = (get("dynamics.simulate_ensemble", "calls")
                 * run.wl.replicas * len(run.deg) * run.wl.steps)
    values = {
        "dynamics.ns_per_urn_step":
            1e9 * get("dynamics.simulate_ensemble", "s") / urn_steps if urn_steps else 0.0,
        "cli.bytes_written": sum(len(b) for b in written),
        "cli.rows_written": sum(b.count(b"\n") for b in written),
    }
    for name, _ in LAYER_METRICS:
        span, field = name.rsplit(".", 1)
        values.setdefault(name, get(span, field))
    return wall, values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A SIGTERM unwinds through spawn(), which kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "urnnet" / "cli.py").is_file():
        sys.stderr.write(f"bench: no urnnet sources at {SRC / 'urnnet'}; "
                         "run it from the root of a checkout of the repository\n")
        return 2
    wl = W.WORKLOADS[args.workload]

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=tmp_root))
    try:
        run = Run(wl, args.seed, work)
        samples, layers = measure(run, args.seconds, bool(args.trace))
        selfcheck = run.self_check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tmp_root.exists() and not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    n_urn_steps = wl.replicas * len(run.deg) * wl.steps
    walls = samples["wall_s"]
    summary = {
        "wall_s": ("s", describe(walls)),
        "peak_rss_mb": ("MB", describe(samples["peak_rss_mb"])),
        "setup_s": ("s", describe(samples["setup_s"])),
    }
    if n_urn_steps:
        summary["urn_steps_per_s"] = ("1/s", describe([n_urn_steps / w for w in walls]))
    failed_ops = run.failed / run.attempted

    env = environment(args.seed)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"({run.attempted} invocations, {len(samples['setup_s'])} set-up probes)")
    for name, (unit, d) in summary.items():
        tail = ", ".join(f"{k}={v:.6g}" for k, v in d.items() if k not in ("median", "n"))
        print(f"  {name:<18} {d['median']:>14.6g} {unit:<5} median of n={d['n']}"
              + (f", {tail}" if tail else ""))
    print(f"  {'failed_ops':<18} {failed_ops:>14.6g} ratio "
          f"{run.failed} failed of {run.attempted} invocations")
    for p in run.problems + selfcheck:
        print(f"  problem: {p}")
    if not selfcheck:
        print("  self-check: a one-digit corruption and a non-zero exit are both rejected")

    if args.trace:
        traced_median = statistics.median(samples["traced_wall_s"])
        values = {name: statistics.median(v[name] for v in layers) for name, _ in LAYER_METRICS}
        values["import.urnnet_cli.s"] = statistics.median(samples["import_s"])
        values["trace.overhead_s"] = traced_median - statistics.median(walls)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
        print(f"  traced runs: median {traced_median:.4f} s of n={len(layers)}; "
              "per-layer values are medians over them")
        for name, m in metrics.items():
            print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics = {name: {"value": summary[name][1]["median"], "unit": summary[name][0]}
                   for name in ("wall_s", "peak_rss_mb", "setup_s")}
    print("  env: " + json.dumps(env))

    result = {"correct": run.failed == 0 and not selfcheck, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{wl.name}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps({
        "result": result, "summary": {k: {"unit": u, **d} for k, (u, d) in summary.items()},
        "failed_ops": {"value": failed_ops, "base": run.attempted},
        "problems": run.problems + selfcheck, "env": env,
        "samples": samples,
    }, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
