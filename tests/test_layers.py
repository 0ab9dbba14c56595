"""The layers as bench/spans.py traces them: each derived fact is computed
once per command, and every per-layer row of BENCHMARK.json names a
function that exists."""
import collections
import functools
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from urnnet import graphs
from urnnet.cli import main

from conftest import C5_EDGES, FIG2_EDGES, grid_edges

ROOT = Path(__file__).resolve().parents[1]

# the functions that build a problem's derived objects, by layer
DERIVING = {"graphs": ("matrices",), "spectral": ("eigendecompose",),
            "theory": ("drift_model", "classify", "limit_set", "fluctuation")}


def count_calls(monkeypatch) -> collections.Counter:
    """Wrap each DERIVING function in every urnnet namespace that binds it,
    as bench/spans.py does, and GraphSpec's colouring and condensation
    builders; the Counter returned counts the calls by name."""
    calls = collections.Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    namespaces = [m for key, m in sys.modules.items()
                  if key == "urnnet" or key.startswith("urnnet.")]
    for layer, names in DERIVING.items():
        for name in names:
            fn = getattr(importlib.import_module(f"urnnet.{layer}"), name)
            wrapper = counted(f"{layer}.{name}", fn)
            for ns in namespaces:
                for key in [k for k, v in vars(ns).items() if v is fn]:
                    monkeypatch.setattr(ns, key, wrapper)
    for name in ("_two_colour", "_condense"):
        monkeypatch.setattr(graphs, name, counted(name, getattr(graphs, name)))
    return calls


@pytest.mark.parametrize("command,edges,directed,uncalled", [
    # ftsnr is a unique-point theorem on both graphs: its limit is the point
    # 1/2 1 as the theorem states it, so no limit_set solve
    ("analyze", grid_edges(5, 5), False, ("theory.limit_set",)),
    ("analyze", FIG2_EDGES, True, ("theory.limit_set",)),
    # the default plan has no fluctuation criterion, an undirected
    # classification reads no spectrum, and the predicted point needs no
    # drift, so not even the dense adjacency: no BLAS or LAPACK call at all
    ("verify", C5_EDGES, False, ("spectral.eigendecompose", "theory.fluctuation",
                                 "theory.drift_model", "theory.limit_set", "graphs.matrices")),
    # the limit set is limit_set(drift) whatever the classification
    ("export-limit", grid_edges(5, 5), False,
     ("spectral.eigendecompose", "theory.classify", "theory.fluctuation")),
], ids=["analyze-grid5x5", "analyze-fig2-directed", "verify-c5", "export-limit-grid5x5"])
def test_each_derived_fact_is_computed_once(tmp_path, monkeypatch, capsys, command, edges,
                                            directed, uncalled):
    graph = tmp_path / "g.edges"
    graph.write_text(edges + "\n")
    calls = count_calls(monkeypatch)
    args = [command, "--graph", str(graph), "--model", "ftsnr"]
    if directed:
        args.append("--directed")
    if command == "verify":
        args += ["--steps", "1000", "--replicas", "8"]
    assert main(args) in (0, 1)  # 1: a verify criterion failed
    capsys.readouterr()
    expected = collections.Counter(
        {f"{layer}.{name}": 1 for layer, names in DERIVING.items() for name in names})
    expected.subtract(uncalled)  # from 1 to 0
    # the BFS colouring also checks connectivity, so every graph builds it;
    # only a directed graph builds its condensation
    expected.update(_two_colour=1, _condense=int(directed))
    assert calls == expected  # a Counter compares a missing name as 0


def test_bench_trace_rows_name_public_functions():
    # a row <layer>.<function>.{s,self_s,calls} reads the spans of a public
    # function of urnnet.<layer> (cmd_<function> for cli); a renamed function
    # would silently read 0
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    rows = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    traced, missing = set(), set()
    for row in rows:
        parts = row["name"].split(".")
        if len(parts) != 3 or parts[0] not in spans.LAYERS or parts[2] not in (
                "s", "self_s", "calls"):
            continue
        layer, name = parts[:2]
        attr = f"cmd_{name}" if layer == "cli" else name
        fn = getattr(importlib.import_module(f"urnnet.{layer}"), attr, None)
        public = (inspect.isfunction(fn) and not attr.startswith("_")
                  and fn.__module__ == f"urnnet.{layer}")
        (traced if public else missing).add(f"{layer}.{name}")
    assert len(traced) >= 10
    # experiments.ensemble is gone from the package; its rows still wait for
    # a benchmark change to remove them
    assert missing == {"experiments.ensemble"}
