"""Byte-identity corpus: run a fixed set of urnnet commands, hash their output.

    python tools/corpus.py OUT

Each command runs in process through this checkout's own urnnet.cli.main,
on graph files written to a temporary directory. OUT gets one line per
command: the argv with the graph's name in place of its path, the exit
code, and the SHA-256 of stdout and of stderr. Before hashing, the
temporary directory's path is replaced by "<dir>" and the wall time that
`simulate` writes to stderr ("in N.NNs") is dropped.

Diffing the files of two checkouts lists exactly the commands whose output
changed. `analyze` prints LAPACK results to 12 digits, which can differ
across numpy and BLAS builds, so compare two checkouts on one machine; the
corpus is no golden file, and it is not part of the test suite.

The corpus: `analyze` and `export-limit` for every graph, model, p in
{0, 0.25, 0.3, 0.5, 1} and s in {1, 2}; default-plan `verify` at 200 steps
x 3 replicas, seed 4, for every graph, model and p in {0, 0.3, 0.5, 1}; and
seeded `simulate` runs on three graphs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import re
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from urnnet.cli import main  # noqa: E402
from urnnet.dynamics import MODEL_CODES  # noqa: E402


def _grid(rows: int, cols: int) -> str:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return "\n".join(f"{u} {v}" for u, v in edges)


def _arcs(arcs) -> str:
    return "\n".join(f"{u} {v}" for u, v in arcs)


# name: (edge list, directed)
GRAPHS = {
    "K2": ("0 1", False),
    "C4": ("0 1\n1 2\n2 3\n3 0", False),
    "C5": ("0 1\n1 2\n2 3\n3 4\n4 0", False),
    "P3": ("0 1\n1 2", False),
    "kite": ("0 1\n1 2\n2 3\n3 0\n0 2", False),  # C4 plus the chord 0-2
    "star": ("0 1\n0 2\n0 3", False),
    "K4": ("0 1\n0 2\n0 3\n1 2\n1 3\n2 3", False),
    "grid3x3": (_grid(3, 3), False),
    "grid3x4": (_grid(3, 4), False),
    "FIG2": ("0 1\n1 0\n0 2\n2 3\n3 4\n4 2", True),
    "C3-directed": ("0 1\n1 2\n2 0", True),
    "defective": ("0 1\n0 2\n1 3\n2 0", True),
    "two-source-2-cycles": (_arcs([(0, 1), (1, 0), (2, 3), (3, 2), (0, 4), (2, 4)]), True),
    "multi-source": (_arcs([(3, 4), (4, 3), (0, 1), (1, 2), (2, 0), (0, 5), (3, 5)]), True),
}
MODELS = tuple(MODEL_CODES)


def commands():
    """(graph name, argv after the graph flags) for every corpus command."""
    for name, code, p, s, cmd in itertools.product(
            GRAPHS, MODELS, ("0", "0.25", "0.3", "0.5", "1"), ("1", "2"),
            ("analyze", "export-limit")):
        yield name, [cmd, "--model", code, "--p", p, "--s", s]
    for name, code, p in itertools.product(GRAPHS, MODELS, ("0", "0.3", "0.5", "1")):
        yield name, ["verify", "--model", code, "--p", p, "--steps", "200", "--replicas", "3",
                     "--seed", "4"]
    for name, code in itertools.product(("C5", "grid3x3", "FIG2"), MODELS):
        yield name, ["simulate", "--model", code, "--p", "0.3", "--steps", "100",
                     "--replicas", "3", "--seed", "4"]


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of urnnet.cli.main(argv). Warnings are
    shown afresh for each command, as in a process of its own."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()


def write_corpus(path: str) -> int:
    """Run the corpus and write its lines to path; the number of commands."""
    count = 0
    with tempfile.TemporaryDirectory() as tmp, open(path, "w", encoding="utf-8") as fh:
        files = {name: Path(tmp, f"{name}.edges") for name in GRAPHS}
        for name, (edges, _) in GRAPHS.items():
            files[name].write_text(edges + "\n")
        for name, args in commands():
            directed = ["--directed"] if GRAPHS[name][1] else []
            code, out, err = run([args[0], "--graph", str(files[name]), *directed, *args[1:]])
            out, err = out.replace(tmp, "<dir>"), err.replace(tmp, "<dir>")
            err = re.sub(r" in [0-9.]+s;", ";", err)
            argv = " ".join([args[0], "--graph", name, *directed, *args[1:]])
            fh.write(f"{argv}\t{code}\t{_sha256(out)}\t{_sha256(err)}\n")
            count += 1
    return count


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    print(f"{write_corpus(sys.argv[1])} commands")
