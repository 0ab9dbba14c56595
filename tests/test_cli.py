import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from urnnet import experiments
from urnnet.cli import _CHUNK, _TOKEN_WIDTH, _dump, _write_trajectories, main, sig12
from urnnet.dynamics import MODEL_CODES, EnsembleTrajectories, simulate_ensemble

from conftest import (
    C4_EDGES,
    C5_EDGES,
    FIG2_EDGES,
    K2_EDGES,
    dumped,
    grid_edges,
    problem,
    random_connected_graph,
    reference_trajectory_csv,
)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.edges"
    path.write_text(C4_EDGES + "\n")
    return str(path)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.edges"
    path.write_text("# five cycle\n" + C5_EDGES + "\n")
    return str(path)


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.edges"
    path.write_text(FIG2_EDGES + "\n")
    return str(path)


def run_json(args, capsys):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_analyze_c4_ftsr(c4_file, capsys):
    rc, rep = run_json(["analyze", "--graph", c4_file, "--model", "ftsr", "--p", "0"], capsys)
    assert rc == 0
    assert rep["classification"]["applicable_theorem"] == "friedman_bipartite_partial_sync"
    assert rep["spectrum"]["theta"] == 1.0
    assert np.allclose(rep["spectrum"]["eigenvalues_re"], [0.0, 1.0, 1.0, 2.0], atol=1e-12)
    assert rep["limit_set"]["kind"] == "one_parameter"
    assert rep["decay"]["mean_exponent"] == 1.0
    assert rep["drift"]["stable"] is True


def test_analyze_c5_ftsnr_unique(c5_file, capsys):
    rc, rep = run_json(["analyze", "--graph", c5_file, "--model", "ftsnr", "--p", "0.7"], capsys)
    assert rc == 0
    assert rep["classification"]["applicable_theorem"] == "friedman_unique"
    assert rep["limit_set"]["kind"] == "unique_point"
    assert rep["limit_set"]["particular"] == [0.5] * 5
    assert rep["fluctuation"]["regime"] == "sqrt_t"


def test_analyze_fig2_directed_family(fig2_file, capsys):
    rc, rep = run_json(["analyze", "--graph", fig2_file, "--directed",
                        "--model", "ftsr", "--p", "0"], capsys)
    assert rc == 0
    assert rep["graph"]["scc_order"] == [[0, 1], [2, 3, 4]]
    assert rep["classification"]["applicable_theorem"] == "directed_general"
    ls = rep["limit_set"]
    assert ls["kind"] == "one_parameter"
    base = np.array(ls["particular"])
    direction = np.array(ls["basis"][0])
    lo, hi = ls["parameter_box"][0]
    ends = {tuple(np.round(base + c * direction, 6)) for c in (lo, hi)}
    want = {tuple(np.round([3 * a - 1, 2 - 3 * a, 1 - a, a, 1 - a], 6))
            for a in (1 / 3, 2 / 3)}
    assert ends == want


def test_analyze_k2_fluctuation_matrix(tmp_path, capsys):
    path = tmp_path / "k2.edges"
    path.write_text(K2_EDGES + "\n")
    rc, rep = run_json(["analyze", "--graph", str(path), "--model", "ftsr",
                        "--p", "0.5", "--s", "1"], capsys)
    assert rc == 0
    fl = rep["fluctuation"]
    assert fl["rho"] == 1.0
    assert np.allclose(fl["Sigma"], [[1 / 6, -1 / 12], [-1 / 12, 1 / 6]])
    assert np.allclose(fl["Gamma"], [[0.25, 0], [0, 0.25]])


def test_simulate_reproducible_bytes(c4_file, tmp_path, capsys):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["simulate", "--graph", c4_file, "--model", "ftsr", "--p", "0.5",
            "--s", "2", "--c", "1", "--t0", "4", "--w0", "2", "--steps", "400",
            "--replicas", "4", "--seed", "7"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    header = b1.decode().splitlines()[0]
    assert header == "replica,t,urn,W,T,Z"
    capsys.readouterr()


def test_simulate_stats_files(c4_file, tmp_path, capsys):
    stats, cov = str(tmp_path / "s.csv"), str(tmp_path / "c.csv")
    rc = main(["simulate", "--graph", c4_file, "--model", "ptsr", "--steps", "50",
               "--replicas", "5", "--seed", "3", "--out", str(tmp_path / "t.csv"),
               "--stats-out", stats, "--cov-out", cov])
    assert rc == 0
    assert open(stats).readline().strip() == "t,urn,mean,var"
    assert open(cov).readline().strip() == "t,urn_i,urn_j,cov"
    capsys.readouterr()


def test_simulate_rejects_oversampling(c4_file, capsys):
    rc = main(["simulate", "--graph", c4_file, "--model", "ftsr", "--sampling",
               "without", "--s", "10", "--t0", "4", "--steps", "10"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_analyze_corrupt_graph_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("zero one\n")
    rc = main(["analyze", "--graph", str(path), "--model", "ftsr"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_analyze_non_utf8_graph_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_bytes(b"0 1\n1 2 # \xff\n")
    rc = main(["analyze", "--graph", str(path), "--model", "ftsr"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"graph file {path} is not UTF-8 text" in err


def test_verify_pass_and_fail(c5_file, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "steps": 2000, "replicas": 16, "schedule": "geometric(2)",
        "criteria": [{"kind": "convergence", "tolerance": 0.1}],
    }))
    out = str(tmp_path / "report.json")
    rc = main(["verify", "--graph", c5_file, "--model", "ftsnr", "--p", "0.5",
               "--seed", "2", "--plan", str(plan), "--out", out])
    assert rc == 0
    rep = json.load(open(out))
    assert rep["overall_pass"] is True
    assert rep["criteria"][0]["pass"] is True

    plan.write_text(json.dumps({
        "steps": 500, "replicas": 8,
        "criteria": [{"kind": "convergence", "tolerance": 1e-6}],
    }))
    rc = main(["verify", "--graph", c5_file, "--model", "ftsnr", "--p", "0.5",
               "--seed", "2", "--plan", str(plan), "--out", out])
    assert rc == 1
    assert json.load(open(out))["overall_pass"] is False
    capsys.readouterr()


def test_verify_default_plan_with_budget_override(c5_file, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    rc = main(["verify", "--graph", c5_file, "--model", "ftsr", "--p", "0.5",
               "--seed", "6", "--steps", "3000", "--replicas", "16", "--out", out])
    assert rc == 0
    rep = json.load(open(out))
    assert rep["overall_pass"] is True
    kinds = [c["criterion"] for c in rep["criteria"]]
    assert any(k.startswith("convergence") for k in kinds)
    assert any(k.startswith("manifold") for k in kinds)
    capsys.readouterr()


@pytest.mark.parametrize("edges,model,p,criteria", [
    (C5_EDGES, "ptsr", "0.5", ["manifold", "sync-global"]),
    (C5_EDGES, "ptnr", "0.5", ["manifold", "sync-global"]),
    (C5_EDGES, "ptsnr", "0.5", ["manifold", "sync-global"]),
    (C4_EDGES, "ftsr", "0", ["manifold", "sync-partition"]),
], ids=["c5-ptsr", "c5-ptnr", "c5-ptsnr", "c4-ftsr-p0"])
def test_default_plan_checks_a_limit_family_along_its_manifold(tmp_path, capsys, edges, model,
                                                                p, criteria):
    # these limits are a random point of a family, not 1/2 1: the default
    # plan checks the distance to the family and the spread, not convergence
    graph = tmp_path / "g.edges"
    graph.write_text(edges + "\n")
    rc, rep = run_json(["verify", "--graph", str(graph), "--model", model, "--p", p,
                        "--steps", "10000"], capsys)
    assert rc == 0, rep
    assert [c["criterion"] for c in rep["criteria"]] == [f"{k}@t=10000" for k in criteria]


@pytest.mark.parametrize("model,p,plan,note", [
    # no theorem applies, so the default plan's manifold has no limit to measure
    ("ptsr", "1", None, "NotApplicableError: no predicted limit (unknown)"),
    # rho = 0.4 < 1/2: no sqrt(t) limit exists
    ("ftnr", "0.8", {"steps": 100, "replicas": 4, "criteria": [{"kind": "fluctuation"}]},
     "NotApplicableError: no sqrt(t) covariance (regime not_applicable)"),
], ids=["unknown-default-plan", "fluctuation-subcritical"])
def test_verify_reports_inapplicable_theory_as_a_typed_failure(c4_file, tmp_path, capsys,
                                                               model, p, plan, note):
    args = ["verify", "--graph", c4_file, "--model", model, "--p", p, "--steps", "100"]
    if plan is not None:
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        args += ["--plan", str(tmp_path / "plan.json")]
    rc, rep = run_json(args, capsys)
    assert rc == 1
    assert [(c["pass"], c["note"]) for c in rep["criteria"]] == [(False, note)]


@pytest.mark.parametrize("model", ["ptsr", "ftsnr"])
def test_analyze_decay_is_unavailable_off_the_graph_walk(c4_file, capsys, model):
    # the exponents of I + A D^-1 are not these models' rates: their exact
    # mean-gap slopes on C4 at p = 0.5 are -0.487 and -1.156, not -1
    rc, rep = run_json(["analyze", "--graph", c4_file, "--model", model, "--p", "0.5"], capsys)
    assert rc == 0
    assert list(rep["decay"]) == ["unavailable"]


_RATE_PLAN = {"steps": 20000, "replicas": 256, "criteria": [
    {"kind": "rate", "contrast": [1, 0, -1, 0], "window": [500, 20000], "tolerance": 0.1}]}


def test_verify_rate_default_target_is_the_graph_walk_rate(c4_file, tmp_path, monkeypatch,
                                                          capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(_RATE_PLAN))
    args = ["verify", "--graph", c4_file, "--plan", str(plan), "--t0", "100",
            "--w0", "25,50,75,50"]
    rc, rep = run_json(args + ["--model", "ftsr", "--p", "0"], capsys)
    (entry,) = rep["criteria"]
    assert entry["theoretical"] == -1.0  # -theta of I + A D^-1 on C4
    assert rc == 0, entry

    # off the graph walk a written target is tested as given
    plan.write_text(json.dumps({**_RATE_PLAN, "criteria": [
        {**_RATE_PLAN["criteria"][0], "target": -0.5}]}))
    rc, rep = run_json(args + ["--model", "ptsr", "--p", "0.5"], capsys)
    (entry,) = rep["criteria"]
    assert entry["theoretical"] == -0.5
    assert rc == 0, entry

    plan.write_text(json.dumps(_RATE_PLAN))

    def no_run(*args, **kwargs):
        raise AssertionError("the ensemble ran for a criterion with no target")
    monkeypatch.setattr(experiments, "simulate_ensemble", no_run)
    rc, rep = run_json(args + ["--model", "ptsr", "--p", "0.5"], capsys)
    (entry,) = rep["criteria"]
    assert rc == 1
    assert entry["theoretical"] is None
    assert entry["note"].startswith("NotApplicableError: the drift is not the graph walk")


def test_config_file_with_flag_override(tmp_path, capsys):
    graph = tmp_path / "k2.edges"
    graph.write_text(K2_EDGES + "\n")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"graph = {graph}\nmodel = ftsr\np = 0.25\ns = 1\n")
    rc, rep = run_json(["analyze", "--config", str(cfgfile), "--p", "0.5"], capsys)
    assert rc == 0
    assert rep["model"]["p"] == 0.5  # flag wins over the config file
    assert rep["model"]["s"] == 1


def test_export_limit(c4_file, tmp_path, capsys):
    out = str(tmp_path / "limit.csv")
    rc = main(["export-limit", "--graph", c4_file, "--model", "ftsr", "--p", "0",
               "--out", out])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "vector,component,value"
    assert any(row.startswith("basis0,") for row in lines)


@pytest.mark.parametrize("model,p", [("ftsr", "1e-12"), ("ftnr", "0.999999999999")])
def test_unique_point_theorem_prints_its_point_where_k_is_near_singular(
        c4_file, tmp_path, capsys, model, p):
    # within ~1e-9 of the graph walk K is numerically singular on C4: the
    # theorem (p > 0, p < 1) still states the point 1/2 1, which analyze
    # prints, while export-limit writes the numerical solution set
    rc, rep = run_json(["analyze", "--graph", c4_file, "--model", model, "--p", p], capsys)
    assert rc == 0
    assert rep["classification"]["applicable_theorem"] == "friedman_unique"
    assert rep["limit_set"] == {"kind": "unique_point", "particular": [0.5] * 4, "basis": [],
                                "parameter_box": []}
    out = tmp_path / "limit.csv"
    assert main(["export-limit", "--graph", c4_file, "--model", model, "--p", p,
                 "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert {vector for vector, _, _ in rows} == {"particular", "basis0"}  # one basis row
    u = [float(v) for vector, i, v in rows if vector == "basis0" and i.isdigit()]
    assert np.allclose(np.multiply(u, np.sign(u[0])), [0.5, -0.5, 0.5, -0.5])


@pytest.mark.parametrize("schedule", ["geometric(1.2)", "all"])
def test_simulate_negative_steps_exit_2(c4_file, tmp_path, schedule, capsys):
    out = tmp_path / "t.csv"
    rc = main(["simulate", "--graph", c4_file, "--model", "ftsr", "--steps", "-5",
               "--schedule", schedule, "--out", str(out)])
    assert rc == 2
    assert "steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--schedule", "geometric(abc)"),
    ("--schedule", "1,x,3"),
    ("--t0", "abc"),
    ("--w0", "abc"),
    ("--seed", "-1"),
    ("--c", "1152921504606846976"),  # totals pass 2**63 after a few steps
    ("--c", "4611686018427387904"),  # C*s alone is 2**63
    ("--t0", "9223372036854775807"),  # the first step overflows
    ("--t0", "9223372036854775808"),  # does not fit in int64 at all
    # a geometric schedule is spelt geometric(r) and nothing else
    ("--schedule", "geometric(1.2"),
    ("--schedule", "geometric1.5"),
    ("--schedule", "geometric)2("),
    ("--schedule", "geometric::2"),
    ("--schedule", "geometric"),
    ("--schedule", "geometric()"),
])
def test_simulate_malformed_option_exit_2(c4_file, flag, value, capsys):
    rc = main(["simulate", "--graph", c4_file, "--model", "ftsr", "--steps", "10",
               flag, value])
    assert rc == 2
    assert "error" in capsys.readouterr().err


# int() and float() also read '1_0' as 10 and Unicode digits; the number
# reader takes ASCII text without '_' only, and names the text it refused
@pytest.mark.parametrize("flag,value,needle", [
    ("--steps", "1_0", "steps must be an integer, got '1_0'"),
    ("--replicas", "\u0661", "replicas must be an integer, got '\u0661'"),
    ("--p", "\u0660.\u0665", "p must be a finite number, got '\u0660.\u0665'"),
    ("--p", "0_5", "p must be a finite number, got '0_5'"),
    ("--t0", "4,1_0,4,4", "t0 must be an integer, got '1_0'"),
    ("--schedule", "geometric(1_5)", "bad schedule 'geometric(1_5)'"),
    # numbers that read but lie outside the model's range
    ("--p", "1.5", "p=1.5 outside [0, 1]"),
    ("--s", "0", "s and C must be positive integers"),
    ("--c", "0", "s and C must be positive integers"),
    ("--t0", "4,4", "t0: expected 1 or 4 values"),
    ("--schedule", "geometric(1)", "ratio must exceed 1"),
], ids=["underscore-steps", "arabic-indic-replicas", "arabic-indic-p", "underscore-p",
        "underscore-t0-entry", "underscore-ratio", "p-above-1", "zero-s", "zero-c",
        "short-t0", "unit-ratio"])
def test_simulate_number_spelling_exit_2(c4_file, flag, value, needle, capsys):
    rc = main(["simulate", "--graph", c4_file, "--model", "ftsr", "--steps", "10",
               flag, value])
    assert rc == 2
    assert needle in capsys.readouterr().err


def test_config_file_unknown_model_exit_2(c4_file, tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"graph = {c4_file}\nmodel = zzz\n")
    rc = main(["analyze", "--config", str(cfgfile)])
    assert rc == 2
    assert "zzz" in capsys.readouterr().err


@pytest.mark.parametrize("text,needle", [
    ('{"graph": "GRAPH", "model": "ftsr", "p": ', "not valid JSON"),
    ('{"graph": "GRAPH", "model": 5}', "'5'"),
    ('{"graph": 1, "model": "ftsr"}', "file path"),
    ('{"graph": "GRAPH", "model": "ftsr", "s": 2.7}', "s must be an integer, got 2.7"),
    ('{"graph": "GRAPH", "model": "ftsr", "steps": 10.7}', "steps must be an integer, got 10.7"),
    ('{"graph": "GRAPH", "model": "ftsr", "replicas": 1.9}',
     "replicas must be an integer, got 1.9"),
    ('{"graph": "GRAPH", "model": "ftsr", "seed": true}', "seed must be an integer, got True"),
    ('{"graph": "GRAPH", "model": "ftsr", "directed": "maybe"}',
     "directed must be true or false, got 'maybe'"),
    ("graph = GRAPH\nmodel = ftsr\nout = x.json\n", "unknown key(s) 'out'"),
    ("graph = GRAPH\nmodel = ftsr # \udcff\n", "is not UTF-8 text"),
    ('{"graph": "GRAPH", "model": "ftsr", "steps": "1_0"}', "steps must be an integer, got '1_0'"),
    ("graph = GRAPH\nmodel = ftsr\np = \u0660.\u0665\n",
     "p must be a finite number, got '\u0660.\u0665'"),
    ("graph = GRAPH\nmodel ftsr\n", "config line 2: expected key = value"),
    ('{"model": "ftsr"}', "error: missing --graph"),
    ('{"graph": "GRAPH"}', "error: missing --model"),
    ("graph = GRAPH\nmodel = ftsr\nsampling = sometimes\n",
     "sampling must be 'with' or 'without', got 'sometimes'"),
], ids=["malformed-json", "non-string-model", "non-string-graph", "fractional-s",
        "fractional-steps", "fractional-replicas", "boolean-seed", "non-boolean-directed",
        "flag-only-key", "non-utf8", "underscore-steps", "arabic-indic-p", "line-without-equals",
        "missing-graph", "missing-model", "unknown-sampling"])
def test_config_file_bad_json_exit_2(c4_file, tmp_path, text, needle, capsys):
    cfgfile = tmp_path / "run.json"
    # a lone surrogate escape writes one byte that is not UTF-8
    cfgfile.write_text(text.replace("GRAPH", c4_file), "utf-8", "surrogateescape")
    rc = main(["analyze", "--config", str(cfgfile)])
    assert rc == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("text,needle", [
    ('{"steps": 10, "criteria": [', "not valid JSON"),
    ('{"steps": -5, "criteria": [{"kind": "convergence"}]}', "steps must be >= 0"),
    ('{"steps": "many", "criteria": [{"kind": "convergence"}]}', "bad plan budget"),
    ('{"steps": 10, "criteria": [{"kind": "bogus"}]}', "unknown criterion kind"),
    ('{"steps": 10, "replicas": 2, "criteria": [{"kind": "rate", "statistic": "bogus",'
     ' "contrast": [1, -1, 0, 0, 0]}]}', "unknown statistic"),
    ('{"steps": 10, "criteria": [{"kind": "convergence", "tolerance": "tight"}]}',
     "bad 'convergence' criterion"),
    ('{"steps": 10, "criteria": [{"tolerance": 0.1}]}', "string 'kind'"),
    ('{"steps": 10, "criteria": ["convergence"]}', "string 'kind'"),
    ('{"steps": 10, "criteria": [{"kind": "convergence", "at": "oops"}]}',
     "bad 'convergence' criterion"),
    ('{"steps": 10, "criteria": [{"kind": "rate"}]}', "'contrast' must be"),
    ('{"steps": 10, "criteria": [{"kind": "rate", "contrast": [1, -1]}]}',
     "'contrast' must be"),
    ('{"steps": 10, "criteria": [{"kind": "rate", "contrast": [1, -1, 0, 0, 0],'
     ' "window": [100]}]}', "'window' must be two integers"),
    ('{"steps": 10, "criteria": [{"kind": "rate", "contrast": [1, -1, 0, 0, 0],'
     ' "window": [100, 2.5]}]}', "'window' must be two integers"),
    ('{"steps": 10, "criteria": [{"kind": "sync", "scope": "bogus"}]}', "'scope' must be"),
    ('{"steps": 10, "criteria": [{"kind": "fluctuation", "sigma": [[1, 0], [0, 1]]}]}',
     "'sigma' must be an 5 x 5 matrix"),
    ('{"steps": 10, "criteria": [{"kind": "convergence", "target": [0.5, 0.5]}]}',
     "'target' must be"),
    ('{"steps": 10, "schedule": [1, "x"], "criteria": [{"kind": "convergence"}]}',
     "bad schedule"),
    ('{"steps": 10, "seed": -1, "criteria": [{"kind": "convergence"}]}',
     "seed must be >= 0"),
    ('{"steps": 10, "criteria": [{"kind": "convergence", "tolerence": 1e-9}]}',
     "unknown key(s) 'tolerence'"),
    ('{"steps": 10, "schedule": ["geometric", 1.5], "criteria": [{"kind": "convergence"}]}',
     "bad schedule"),
    ('{"steps": 10, "criteria": [{"kind": "convergence"},'
     ' {"kind": "manifold", "steps": 4611686018427387904}]}', "overflow int64"),
    ('{"steps": 100.9, "criteria": [{"kind": "convergence"}]}',
     "bad plan budget: steps must be an integer, got 100.9"),
    ('{"steps": 10, "replicas": 1.9, "criteria": [{"kind": "convergence"}]}',
     "bad plan budget: replicas must be an integer, got 1.9"),
    ('{"steps": 10, "criteria": [{"kind": "convergence", "seed": 2.5}]}',
     "bad plan budget: seed must be an integer, got 2.5"),
    ('{"steps": 100, "criteria": [{"kind": "convergence", "at": 100.7}]}',
     "'at' must be an integer, got 100.7"),
    ('{"steps": true, "criteria": [{"kind": "convergence"}]}',
     "bad plan budget: steps must be an integer, got True"),
    ('{"steps": 100, "schedule": [50.7], "criteria": [{"kind": "convergence"}]}',
     "bad schedule"),
    ('{"steps": 10, "criteria": [{"kind": "convergence", "tolerance": Infinity}]}',
     "'tolerance' must be a finite number, got inf"),
    ('{"steps": 10, "criteria": [{"kind": "convergence", "tolerance": true}]}',
     "'tolerance' must be a finite number, got True"),
    ('{"steps": 10, "criteria": [{"kind": "rate", "contrast": [1, -1, 0, 0, 0],'
     ' "window": [true, 200]}]}', "'window' must be two integers"),
    ('{"steps": 10, "schedul": [7], "criteria": [{"kind": "convergence"}]}',
     "plan: unknown key(s) 'schedul'"),
    ('{"steps": 10, "criteria": [{"kind": "convergence", "target": null}]}',
     "'target' must be a finite number, got None"),
    ('{"steps": 10, "criteria": [{"kind": "convergence", "target": NaN}]}',
     "'target' must be a finite number, got nan"),
    ('{"steps": 10, "criteria": [{"kind": "convergence", "target": [true, 0.5, 0.5, 0.5, 0.5]}]}',
     "'target' must be a finite number, got True"),
    ('{"steps": 10, "criteria": [{"kind": "convergence", "target": [0.5, [0.5], 0.5, 0.5, 0.5]}]}',
     "'target' must be a finite number, got [0.5]"),
    ('{"steps": 10, "replicas": 2, "criteria": [{"kind": "rate", "contrast": [1, -1, null, 0, 0]}]}',
     "'contrast' must be a finite number, got None"),
    ('{"steps": 10, "criteria": [{"kind": "fluctuation", "sigma": %s}]}'
     % json.dumps([[float("inf") if i == j == 0 else float(i == j) for j in range(5)]
                   for i in range(5)]),
     "'sigma' must be a finite number, got inf"),
    ('{"steps": 10, "criteria": [{"kind": "convergence"}]} \udcff',
     "is not UTF-8 text"),
    ('{"steps": "1_0", "criteria": [{"kind": "convergence"}]}',
     "bad plan budget: steps must be an integer, got '1_0'"),
    ('{"steps": 10, "criteria": [{"kind": "convergence", "tolerance": "\u0660.\u0665"}]}',
     "'tolerance' must be a finite number, got '\u0660.\u0665'"),
    *(('{"steps": 10, "schedule": "%s", "criteria": [{"kind": "convergence"}]}' % spelling,
       f"bad plan budget: bad schedule '{spelling}'")
      for spelling in ("geometric(1.2", "geometric1.5", "geometric)2(", "geometric::2",
                       "geometric", "geometric()")),
    ('{"steps": 10, "criteria": []}', "plan has no criteria"),
    ('{"steps": 10, "criteria": {"kind": "convergence"}}', "plan criteria must be a list"),
    ('{"steps": 10, "criteria": [{"kind": "sync", "cross_sum_tolerance": "x"}]}',
     "'cross_sum_tolerance' must be a finite number"),
    ('{"steps": 10, "criteria": [{"kind": "sync", "cross_sum_tolerance": 0.1,'
     ' "cross_sum_fraction": null}]}', "'cross_sum_fraction' must be a finite number"),
    ('{"steps": 10, "replicas": 2, "criteria": [{"kind": "rate", "contrast": [1, -1, 0, 0, 0],'
     ' "target": "fast"}]}', "'target' must be a finite number, got 'fast'"),
    ('{"steps": 10, "criteria": [{"kind": "sync", "cross_sum_tolerance": -1}]}',
     "'cross_sum_tolerance' must be >= 0, got -1.0"),
    ('{"steps": 10, "criteria": [{"kind": "sync", "cross_sum_tolerance": 0.5,'
     ' "cross_sum_fraction": 95}]}', "'cross_sum_fraction' must lie in [0, 1], got 95.0"),
    # read whether or not a cross_sum_tolerance asks for the cross-sum check
    ('{"steps": 10, "criteria": [{"kind": "sync", "scope": "partition",'
     ' "cross_sum_fraction": "abc"}]}', "'cross_sum_fraction' must be a finite number, got 'abc'"),
    # a global sync, its scope given or defaulted on C5, has no cross-sum check
    ('{"steps": 10, "criteria": [{"kind": "sync", "cross_sum_tolerance": 0.03}]}',
     "bad 'sync' criterion: the cross-sum keys need scope 'partition'"),
    ('{"steps": 10, "criteria": [{"kind": "sync", "scope": "global",'
     ' "cross_sum_fraction": 1}]}', "the cross-sum keys need scope 'partition'"),
    # a fraction with no tolerance would be read and then ignored
    ('{"steps": 10, "criteria": [{"kind": "sync", "scope": "partition",'
     ' "cross_sum_fraction": 0.99}]}',
     "bad 'sync' criterion: 'cross_sum_fraction' needs a 'cross_sum_tolerance'"),
    # rate fits over its window, so an "at" would do nothing
    ('{"steps": 10, "replicas": 2, "criteria": [{"kind": "rate", "contrast": [1, -1, 0, 0, 0],'
     ' "at": 7}]}', "bad 'rate' criterion: unknown key(s) 'at'"),
    ('[{"kind": "convergence"}]', ": expected a JSON object"),
    # a zero reference has no relative error: rejected before the ensemble runs
    ('{"steps": 200, "replicas": 4, "criteria": [{"kind": "fluctuation", "sigma": %s}]}'
     % json.dumps([[0] * 5] * 5), "'sigma' is all zero"),
], ids=["malformed-json", "negative-steps", "non-integer-steps", "unknown-kind",
        "unknown-statistic", "non-numeric-tolerance", "missing-kind", "string-criterion",
        "non-integer-at", "rate-missing-contrast", "rate-short-contrast", "rate-short-window",
        "rate-fractional-window", "sync-unknown-scope", "fluctuation-sigma-shape",
        "convergence-target-length", "non-integer-schedule", "negative-seed",
        "misspelt-key", "list-geometric-schedule", "overflowing-steps", "fractional-steps",
        "fractional-replicas", "fractional-seed", "fractional-at", "boolean-steps",
        "fractional-schedule-time", "infinite-tolerance", "boolean-tolerance",
        "boolean-window", "misspelt-plan-key", "null-target", "nan-target",
        "boolean-target-entry", "ragged-target", "null-contrast-entry", "infinite-sigma-entry",
        "non-utf8", "underscore-steps", "arabic-indic-tolerance", "unclosed-geometric",
        "geometric-without-parentheses", "geometric-reversed-parentheses", "geometric-colons",
        "bare-geometric", "empty-geometric", "empty-criteria", "criteria-object",
        "non-numeric-cross-sum-tolerance", "null-cross-sum-fraction", "non-numeric-rate-target",
        "negative-cross-sum-tolerance", "cross-sum-fraction-above-1",
        "cross-sum-fraction-without-tolerance", "global-sync-cross-sum-tolerance",
        "global-sync-cross-sum-fraction", "lone-cross-sum-fraction", "rate-at", "json-array",
        "all-zero-sigma"])
def test_verify_bad_plan_exit_2(c5_file, tmp_path, text, needle, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(text, "utf-8", "surrogateescape")  # see the config file test
    out = tmp_path / "report.json"
    rc = main(["verify", "--graph", c5_file, "--model", "ftsnr", "--plan", str(plan),
               "--out", str(out)])
    assert rc == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_verify_target_reads_entries_and_echoes_the_numbers_read(c5_file, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    entries = {}
    read = {"0.5": 0.5, '"0.5"': 0.5, "1": 1.0, "5e-1": 0.5,
            "[0.5, 0.5, 0.5, 0.5, 1]": [0.5, 0.5, 0.5, 0.5, 1.0]}
    for target, number in read.items():
        plan.write_text('{"steps": 50, "replicas": 2, "criteria": [{"kind": "convergence",'
                        ' "tolerance": 1, "target": %s}]}' % target)
        assert main(["verify", "--graph", c5_file, "--model", "ftsnr", "--plan", str(plan)]) == 0
        (entries[target],) = json.loads(capsys.readouterr().out)["criteria"]
        assert json.dumps(entries[target]["theoretical"]) == json.dumps(number)
    # a decimal string reads as the number it spells
    assert entries['"0.5"']["empirical"] == entries["0.5"]["empirical"]
    assert entries["5e-1"]["empirical"] == entries["0.5"]["empirical"]


def test_verify_integral_float_plan_matches_integer_spelling(c5_file, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    reports = []
    for text in ('{"steps": 400, "replicas": 4, "seed": 3, "schedule": [100, 200],'
                 ' "criteria": [{"kind": "convergence", "at": 200, "tolerance": 1}]}',
                 '{"steps": 4e2, "replicas": 4.0, "seed": 3.0, "schedule": [1e2, 200.0],'
                 ' "criteria": [{"kind": "convergence", "at": 2e2, "tolerance": 1}]}'):
        plan.write_text(text)
        assert main(["verify", "--graph", c5_file, "--model", "ftsnr", "--plan", str(plan)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["criteria"][0]["criterion"] == "convergence@t=200"


def test_verify_at_off_schedule_is_a_failed_entry(c5_file, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"steps": 100, "replicas": 2, "schedule": [50],
                                "criteria": [{"kind": "convergence", "at": 7}]}))
    rc = main(["verify", "--graph", c5_file, "--model", "ftsnr", "--plan", str(plan)])
    assert rc == 1
    (entry,) = json.loads(capsys.readouterr().out)["criteria"]
    assert entry["pass"] is False
    assert entry["note"] == "NotACheckpointError: t=7 is not a checkpoint (have [0, 50, 100])"


def test_verify_too_few_replicas_outranks_off_schedule_at(c5_file, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"steps": 100, "replicas": 4, "schedule": [50],
                                "criteria": [{"kind": "fluctuation", "replicas": 1, "at": 7}]}))
    rc = main(["verify", "--graph", c5_file, "--model", "ftsnr", "--plan", str(plan)])
    assert rc == 1
    (entry,) = json.loads(capsys.readouterr().out)["criteria"]
    assert entry["pass"] is False
    assert entry["note"] == "TooFewReplicasError: need at least 2 replicas for a covariance"


def test_verify_seed_overrides_plan_seed_but_not_a_criterion_seed(c4_file, tmp_path, capsys):
    plan, cfgfile = tmp_path / "plan.json", tmp_path / "run.cfg"
    cfgfile.write_text(f"graph = {c4_file}\nmodel = ftsr\np = 0.5\nseed = 5\n")

    def empiricals(plan_seed, *flags):
        plan.write_text(json.dumps({"steps": 300, "replicas": 3, "seed": plan_seed, "criteria": [
            {"kind": "convergence"}, {"kind": "convergence", "seed": 3}]}))
        main(["verify", *flags, "--plan", str(plan)])
        return [e["empirical"] for e in json.loads(capsys.readouterr().out)["criteria"]]

    model = ["--graph", c4_file, "--model", "ftsr", "--p", "0.5"]
    five = empiricals(3, *model, "--seed", "5")
    seven = empiricals(3, *model, "--seed", "7")
    assert five == empiricals(5, *model) == empiricals(3, "--config", str(cfgfile))
    assert seven == empiricals(7, *model)
    assert five[0] != seven[0]
    assert five[1] == seven[1] == empiricals(3, *model)[0]


def test_config_file_per_urn_lists_match_flags(c4_file, tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"graph": c4_file, "model": "ftsr",
                                   "t0": [4, 5, 6, 7], "w0": [1, 2, 3, 4]}))
    assert main(["analyze", "--config", str(cfgfile)]) == 0
    from_file = capsys.readouterr().out
    assert main(["analyze", "--graph", c4_file, "--model", "ftsr",
                 "--t0", "4,5,6,7", "--w0", "1,2,3,4"]) == 0
    from_flags = capsys.readouterr().out
    assert from_file == from_flags
    assert json.loads(from_file)["model"]["T0"] == [4, 5, 6, 7]


def test_cli_import_leaves_scipy_out(tmp_path):
    # scipy is a test dependency only: neither the import nor an analyze that
    # runs the numerical Lyapunov solve (grid3x3 ftsnr has no closed form)
    # may load it
    graph, out = tmp_path / "grid3x3.edges", tmp_path / "analyze.json"
    graph.write_text(grid_edges(3, 3) + "\n")
    code = ("import sys, urnnet, urnnet.cli; "
            f"rc = urnnet.cli.main(['analyze', '--graph', {str(graph)!r}, '--model', 'ftsnr', "
            f"'--out', {str(out)!r}]); "
            "print(rc, *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout.strip() == "0", run.stdout + run.stderr
    fl = json.loads(out.read_text())["fluctuation"]
    assert fl["regime"] == "sqrt_t" and fl["closed_form"] is False and fl["Sigma"]


def test_analyze_reports_unconverged_lyapunov_solve_as_unavailable(tmp_path, capsys, monkeypatch):
    from urnnet import theory
    monkeypatch.setattr(theory, "_SIGN_MAX_ITER", 1)
    graph = tmp_path / "grid3x3.edges"
    graph.write_text(grid_edges(3, 3) + "\n")
    rc, rep = run_json(["analyze", "--graph", str(graph), "--model", "ftsnr"], capsys)
    assert rc == 0
    assert rep["fluctuation"] == {"unavailable": "sign iteration did not converge in 1 steps"}


_FLOATS = st.one_of(
    st.floats(),  # includes NaN, +-inf, -0.0 and subnormals
    st.floats(1e12, 1e16), st.floats(-1e16, -1e12),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e15, 1e16, 123456789012.34567]),
)
_NUMBERS = st.one_of(_FLOATS, st.integers(), st.booleans())
_STRINGS = st.one_of(st.text(), st.sampled_from(["a, b", ", ", '", "', '"\\', "é, ü", "1, 2"]))
_JSON = st.recursive(
    st.one_of(st.none(), _NUMBERS, _STRINGS),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(_NUMBERS, min_size=1, max_size=6),
                            st.dictionaries(_STRINGS, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_JSON)
@example([[], {}, [[]], [{}], {"": []}, {"a": {"b": {}}}])
@example({"m": [[0.1, -0.0, float("nan")], [float("inf"), -float("inf"), 5e-324]],
          "s": ["x, y", 1, True, None]})
@example({"non-string keys": [{1: [1, 2.5], None: {"x": []}, 0.5: "a, b", True: False}]})
def test_dumps_equals_json_dumps_indent_2(value):
    assert dumped(value) == json.dumps(value, indent=2)


def _sig12_lists(obj):
    """obj with every float array replaced by the nested lists of its sig12 values."""
    if isinstance(obj, np.ndarray):
        return [_sig12_lists(row) for row in obj] if obj.ndim > 1 else list(map(sig12, obj))
    if isinstance(obj, dict):
        return {k: _sig12_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_sig12_lists(x) for x in obj]
    return obj


@pytest.mark.parametrize("shape", [(0,), (7,), (0, 4), (4, 0), (1, 1), (6, 9)])
def test_fmt_rounding_matches_sig12(shape):
    rng = np.random.default_rng(sum(shape))
    M = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e15 + 0.5, 0.1 + 0.2]
    M.flat[:len(special)] = special[:M.size]
    if M.ndim == 2:
        assert dumped(M) == json.dumps([[sig12(x) for x in row] for row in M], indent=2)
    assert dumped(M.ravel()) == json.dumps([sig12(x) for x in M.ravel()], indent=2)


# A few values repeated across an array, so that both de-duplications (by bit
# pattern, then after rounding) merge entries: -0.0 next to 0.0, and 1/3 next
# to a value that rounds to the same 12 digits.
_REPEATED = st.sampled_from([0.0, -0.0, 1 / 3, 1 / 3 + 1e-14, 0.25, -2.5e-7, float("nan")])
_FLOAT_ARRAYS = arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
                       elements=st.one_of(_FLOATS, _REPEATED))
_NAN_PAYLOADS = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                          0x7FF0000000000001], dtype=np.uint64).view(np.float64)


@settings(max_examples=300, deadline=None)
@given(st.recursive(st.one_of(_FLOAT_ARRAYS, st.none(), _NUMBERS, _STRINGS),
                    lambda inner: st.one_of(st.lists(inner, max_size=4),
                                            st.dictionaries(_STRINGS, inner, max_size=4)),
                    max_leaves=8))
@example({"zeros": np.array([[0.0, -0.0], [-0.0, 0.0]]), "x": [np.array([-0.0, 1.0, 0.0])]})
@example([{"nan": _NAN_PAYLOADS.reshape(2, 2)}, _NAN_PAYLOADS])
@example({"same12": np.array([1 / 3, 1 / 3 + 1e-14, 0.1 + 0.2, 0.3]),
          "deep": [[{"a": np.ones((2, 1))}]]})
def test_dumps_writes_float_arrays_as_sig12_lists(value):
    assert dumped(value) == json.dumps(_sig12_lists(value), indent=2)


@pytest.mark.parametrize("distinct", [_CHUNK, _CHUNK + 1, 3 * _CHUNK + 1])
def test_dump_array_chunk_boundaries(distinct):
    rng = np.random.default_rng(distinct)
    values = rng.standard_normal(distinct) * 10.0 ** rng.integers(-300, 300, distinct)
    a = values[rng.permutation(np.arange(2 * distinct) % distinct)]  # each value twice
    assert len(np.unique(a)) == distinct
    assert dumped(a) == json.dumps([sig12(x) for x in a], indent=2)
    M = a.reshape(-1, 2)  # a row per distinct value: more rows than a chunk past _CHUNK
    assert dumped({"M": M}) == json.dumps({"M": [[sig12(x) for x in row] for row in M]}, indent=2)


# The longest tokens: each has as many characters as a token may hold.
_LONGEST = [-1.23456789012e-308, -1234567890120000.0, -9.87654321098e+307, -1.23456789012e-100]


def test_dump_array_writes_longest_tokens_whole():
    assert {len(json.dumps(x)) for x in _LONGEST} == {_TOKEN_WIDTH}
    # every decimal exponent, subnormals included, at 12 digits
    values = np.array([-float(f"1.23456789012e{e}") for e in range(-324, 309)]
                      + _LONGEST + [-np.inf, np.inf, np.nan, -0.0])
    assert max(len(json.dumps(sig12(x))) for x in values) == _TOKEN_WIDTH
    assert dumped(values) == json.dumps([sig12(x) for x in values], indent=2)
    assert "-Infinity" in dumped(values)


def test_dump_holds_under_four_times_its_text(tmp_path):
    rng = np.random.default_rng(0)
    report = {"Sigma": rng.standard_normal((300, 300)), "Gamma": np.eye(300) / 8,
              "b": np.ones(300)}
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            _dump(report, fh.write)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 2_500_000
    assert peak < 4 * size, (peak, size)


def test_dump_writes_once_per_leaf_row():
    """12 leaf rows and 4 closing brackets, 7 edges and a closing bracket, and the
    dict's closing brace, whatever the length of a row."""
    counts = []
    for width in (1, 5, 500):
        writes = []
        _dump({"M": np.ones((3, 4, width)), "edges": [[0, 1]] * 7}, writes.append)
        counts.append(len(writes))
    assert counts == [25] * 3


def _run_quiet(args, capsys):
    rc = main(args)
    return rc, capsys.readouterr()


@pytest.mark.parametrize("command,flags", [
    ("analyze", ["--model", "ftsnr"]),
    ("verify", ["--model", "ftsnr", "--steps", "300", "--replicas", "4"]),
])
def test_stdout_matches_out_file(tmp_path, command, flags, capsys):
    graph = tmp_path / "grid.edges"
    graph.write_text(grid_edges(4, 5) + "\n")
    args = [command, "--graph", str(graph), *flags]
    out = tmp_path / "report.json"
    rc_file, _ = _run_quiet(args + ["--out", str(out)], capsys)
    rc_stdout, captured = _run_quiet(args, capsys)
    assert rc_file == rc_stdout
    assert captured.out == out.read_text(encoding="utf-8")
    assert json.loads(captured.out)


def _assert_io_error(args, capsys):
    rc, captured = _run_quiet(args, capsys)
    assert rc == 3
    assert captured.err.startswith("i/o error:")


@pytest.mark.parametrize("flag,command", [
    ("--graph", "analyze"), ("--config", "analyze"), ("--plan", "verify")])
def test_missing_input_file_exit_3(c4_file, tmp_path, flag, command, capsys):
    args = [command, "--graph", c4_file, "--model", "ftsr", flag, str(tmp_path / "missing")]
    _assert_io_error(args, capsys)


_FULL = "/dev/full"
needs_full_device = pytest.mark.skipif(not os.path.exists(_FULL), reason="no /dev/full")


@pytest.mark.parametrize("target", ["directory", _FULL])
@pytest.mark.parametrize("command", ["analyze", "verify", "export-limit", "simulate"])
def test_unwritable_out_exit_3(c4_file, tmp_path, command, target, capsys):
    if target == _FULL and not os.path.exists(_FULL):
        pytest.skip("no /dev/full")
    budget = ["--steps", "10", "--replicas", "2"] if command in ("verify", "simulate") else []
    out = str(tmp_path) if target == "directory" else target
    _assert_io_error([command, "--graph", c4_file, "--model", "ftsr", *budget, "--out", out], capsys)


@needs_full_device
@pytest.mark.parametrize("flag", ["--stats-out", "--cov-out"])
def test_simulate_side_file_to_full_device_exit_3(c4_file, tmp_path, flag, capsys):
    args = ["simulate", "--graph", c4_file, "--model", "ftsr", "--steps", "10",
            "--replicas", "2", "--out", str(tmp_path / "t.csv"), flag, _FULL]
    _assert_io_error(args, capsys)


@pytest.mark.parametrize("edges,flags", [
    (C4_EDGES, ["--model", "ftsr", "--p", "0"]),
    (K2_EDGES, ["--model", "ftsr", "--p", "0.5", "--s", "1"]),
    (FIG2_EDGES, ["--directed", "--model", "ftsr", "--p", "0"]),
    (grid_edges(5, 5), ["--model", "ftsnr"]),
], ids=["c4", "k2", "fig2-directed", "grid5x5-ftsnr"])
def test_analyze_output_is_json_dumps_indent_2(tmp_path, edges, flags, capsys):
    path = tmp_path / "g.edges"
    path.write_text(edges + "\n")
    assert main(["analyze", "--graph", str(path), *flags]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


_THEOREMS = {"fu": "friedman_unique", "fb": "friedman_bipartite_partial_sync",
             "pr": "polya_regular_sync", "p2": "polya_bipartite_two_param",
             "du": "directed_friedman_unique", "dg": "directed_general", "--": "unknown"}
_PINNED_CODES = [(code, p) for code in ("ftsr", "ftnr", "ftsnr", "ptsr", "ptnr", "ptsnr")
                 for p in ("0", "0.5", "1")]


def _assert_limit_set_pinned(ls, short, graph):
    """The `limit_set` block of a theorem: none for "--"; else the point 1/2 1
    plus orthonormal rows, each up to sign, along the theorem's directions (none
    for the unique theorems, the bipartition contrast for fb, the diagonal for
    pr, the two side indicators for p2, and fig2's family
    (3a - 1, 2 - 3a, 1 - a, a, 1 - a) for dg), with the box +-1/(2 max|u|)."""
    if short == "--":
        assert ls is None
        return
    n = graph["n"]
    side = np.isin(np.arange(n), (graph["bipartition"] or [[]])[0])
    dirs = {"fu": [], "du": [], "fb": [side - 0.5], "pr": [np.ones(n)],
            "p2": [side, ~side], "dg": [[3, -3, -1, 1, -1]]}[short]
    want = np.array(dirs, float).reshape(len(dirs), n)
    want /= np.linalg.norm(want, axis=1, keepdims=True)
    assert ls["kind"] == ("unique_point", "one_parameter", "two_parameter")[len(dirs)]
    assert ls["particular"] == [0.5] * n
    basis = np.array(ls["basis"]).reshape(want.shape)
    signs = np.sign(np.sum(basis * want, axis=1, keepdims=True))
    assert np.allclose(signs * basis, want, rtol=0, atol=1e-11)
    half_width = 0.5 / np.abs(want).max(axis=1)
    assert np.allclose(np.reshape(ls["parameter_box"], (-1, 2)),
                       np.stack([-half_width, half_width], axis=1), rtol=0, atol=1e-11)


# The integer and bool blocks of `analyze`, which do not depend on the BLAS
# build: `graph` (edges checked against the input), the assumption flags
# (connected, bipartite, regular, uniform_t0, diagonalizable[, g1_odd_cycle])
# and the theorem of each model at p = 0, 0.5, 1, in _PINNED_CODES order.
# Also the `limit_set` block each theorem fixes, up to the signs of its basis
# rows (_assert_limit_set_pinned).
@pytest.mark.parametrize("edges,directed,graph,checks,theorems", [
    (K2_EDGES, False,
     {"n": 2, "degrees": [1, 1], "bipartition": [[0], [1]], "regular_degree": 1}, "11111",
     "fb fu fu  fu fu fb  fu fu fu  pr pr --  p2 pr pr  pr pr pr"),
    ("0 1\n1 2", False,
     {"n": 3, "degrees": [1, 2, 1], "bipartition": [[0, 2], [1]]}, "11011",
     "fb fu fu  fu fu fb  fu fu fu  pr pr --  -- -- --  -- -- --"),
    (C4_EDGES, False,
     {"n": 4, "degrees": [2] * 4, "bipartition": [[0, 2], [1, 3]], "regular_degree": 2}, "11111",
     "fb fu fu  fu fu fb  fu fu fu  pr pr --  p2 pr pr  pr pr pr"),
    (C5_EDGES, False, {"n": 5, "degrees": [2] * 5, "regular_degree": 2}, "10111",
     "fu fu fu  fu fu fu  fu fu fu  pr pr --  pr pr pr  pr pr pr"),
    (grid_edges(5, 5), False,
     {"n": 25, "degrees": [2, 3, 3, 3, 2] + [3, 4, 4, 4, 3] * 3 + [2, 3, 3, 3, 2],
      "bipartition": [list(range(0, 25, 2)), list(range(1, 25, 2))]}, "11011",
     "fb fu fu  fu fu fb  fu fu fu  pr pr --  -- -- --  -- -- --"),
    ("0 1\n0 2\n0 3\n0 4\n0 5", False,
     {"n": 6, "degrees": [5, 1, 1, 1, 1, 1], "bipartition": [[0], [1, 2, 3, 4, 5]]}, "11011",
     "fb fu fu  fu fu fb  fu fu fu  pr pr --  -- -- --  -- -- --"),
    (FIG2_EDGES, True,
     {"n": 5, "degrees": [1, 1, 2, 1, 1], "scc_order": [[0, 1], [2, 3, 4]],
      "g1_is_odd_cycle": False}, "100110",
     "dg du du  -- du dg  du du du  -- -- --  -- -- --  -- -- --"),
    ("0 1\n1 2\n2 0", True,
     {"n": 3, "degrees": [1, 1, 1], "scc_order": [[0, 1, 2]], "g1_is_odd_cycle": True}, "100111",
     "du du du  -- du du  du du du  -- -- --  -- -- --  -- -- --"),
    ("0 1\n0 2\n1 3\n2 0", True,
     {"n": 4, "degrees": [1, 1, 1, 1], "scc_order": [[0, 2], [1], [3]],
      "g1_is_odd_cycle": False}, "100100",
     "-- du du  -- du --  du du du  -- -- --  -- -- --  -- -- --"),
], ids=["k2", "p3", "c4", "c5", "grid5x5", "star", "fig2", "c3-directed", "defective"])
def test_analyze_graph_and_classification_pinned(tmp_path, edges, directed, graph, checks,
                                                 theorems, capsys):
    path = tmp_path / "g.edges"
    path.write_text(edges + "\n")
    pairs = {tuple(int(x) for x in line.split()) for line in edges.splitlines()}
    if not directed:
        pairs = {(min(e), max(e)) for e in pairs}
    want_graph = {"directed": directed, "edges": sorted(map(list, pairs)), "bipartition": None,
                  "regular_degree": None, "scc_order": None, "g1_is_odd_cycle": None, **graph}
    names = ["connected", "bipartite", "regular", "uniform_t0", "diagonalizable", "g1_odd_cycle"]
    want_checks = [[name, flag == "1"] for name, flag in zip(names, checks)]
    for (code, p), short in zip(_PINNED_CODES, theorems.split()):
        rc, rep = run_json(["analyze", "--graph", str(path), "--model", code, "--p", p]
                           + (["--directed"] if directed else []), capsys)
        assert rc == 0
        assert rep["graph"] == want_graph
        assert rep["classification"] == {"applicable_theorem": _THEOREMS[short],
                                         "assumptions_checked": want_checks}, (code, p)
        _assert_limit_set_pinned(rep["limit_set"], short, want_graph)


# SHA-256 of `simulate --out` and `--stats-out`. The RNG stream layout is part
# of the determinism contract, so a change to it must show up here.
@pytest.mark.parametrize("edges,directed,flags,out_sha,stats_sha", [
    (C4_EDGES, False,
     ["--model", "ftsr", "--p", "0.5", "--s", "2", "--t0", "4", "--w0", "2",
      "--steps", "200", "--replicas", "4", "--seed", "7"],
     "c11d2616c121cf0e21218f9a99b4d9c8121bdabe88c933478a3e306b2edc6a8f",
     "1edc8f0a043d2d6e93705289d272dc10f267850d0798cddb8d00048247bb2482"),
    (grid_edges(3, 3), False,
     ["--model", "ptsnr", "--p", "0.3", "--s", "2", "--t0", "6", "--w0", "3",
      "--steps", "100", "--replicas", "3", "--seed", "5", "--sampling", "without"],
     "b879f2f13c17cd54db598d6e9715a63a46e1f66677b20789dc8fa5e3da8b7101",
     "1ea51446af43150750b876c3fbfb408ff58e5f4d1bedd72e37d821dc5fc32317"),
    (FIG2_EDGES, True,
     ["--model", "ftnr", "--p", "0.4", "--s", "3", "--t0", "8", "--w0", "3",
      "--steps", "100", "--replicas", "3", "--seed", "11"],
     "bbeb55c9cb38428f2d90758ac30746c2046abc316759f2684ee7e16a9a93471a",
     "a8df9adfbc20e985c31763f559071f043d8edda404e19577b8a2ce15b729dbe4"),
    (C5_EDGES, False,
     ["--model", "ftsnr", "--p", "0.6", "--s", "2", "--t0", "4", "--w0", "2",
      "--steps", "200", "--replicas", "5", "--seed", "13"],
     "2bef08f98dc1a0bcbeafed578115347a0989327fa441bdcd8bb449e1d10a7000",
     "71993090f120200576130ecbe000a7aa42e5db71ef323da057ff18317d91862e"),
    # urns of unequal in-degree, whose totals grow by 3 s omega_i a step
    (FIG2_EDGES, True,
     ["--model", "ftsnr", "--p", "0.5", "--s", "2", "--c", "3", "--t0", "5", "--w0", "2",
      "--steps", "60", "--replicas", "5", "--seed", "17", "--schedule", "all"],
     "51851f6e2e4689f01d8b2f09fe560781dda1de41cf701ffc72c403a1663c0016",
     "a9d4300d69a3a8aaa64bbc757872d22db83a3a59acfe18dace8fbd6fc282e531"),
], ids=["c4-ftsr-with", "grid3x3-ptsnr-without", "fig2-ftnr-directed", "c5-ftsnr-with",
        "fig2-ftsnr-c3-all"])
def test_simulate_stream_layout_pinned(tmp_path, edges, directed, flags, out_sha,
                                       stats_sha, capsys):
    graph = tmp_path / "g.edges"
    graph.write_text(edges + "\n")
    out, stats = tmp_path / "t.csv", tmp_path / "s.csv"
    rc = main(["simulate", "--graph", str(graph)] + (["--directed"] if directed else [])
              + flags + ["--out", str(out), "--stats-out", str(stats)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_sha
    assert hashlib.sha256(stats.read_bytes()).hexdigest() == stats_sha
    capsys.readouterr()


BIG = 2 ** 62


def _trajectories(times, W, T):
    return EnsembleTrajectories(np.array(times), np.array(W, dtype=np.int64),
                                np.array(T, dtype=np.int64))


@pytest.mark.parametrize("raw", [
    # totals near 2^62: distinct integer pairs whose float64 W / T are equal
    _trajectories([0, 5],
                  [[[BIG - 2, BIG - 4, 3], [BIG - 3, BIG - 4, 3], [BIG - 2, BIG - 5, 6]],
                   [[BIG + 7, 1, 3], [BIG + 6, 1, 3], [BIG + 7, 2, 6]]],
                  [[BIG - 1, BIG - 3, 7], [BIG + 9, BIG + 9, 6]]),
    # 1/2, 2/4 and 3/6 share a Z token; W = 3 stands over two totals
    _trajectories([0, 1, 9], [[[1, 2, 3], [2, 2, 3]], [[1, 3, 3], [1, 2, 3]],
                              [[3, 3, 3], [1, 2, 3]]],
                  [[2, 4, 6], [2, 4, 7], [6, 6, 6]]),
    # one replica, one snapshot, two urns; Python's exact int / int would
    # print these Z one digit off from the float64 W / T
    _trajectories([4], [[[1646135207524525676, 3217035058040930602]]],
                  [[4611686718665987761, 4611687039954444366]]),
], ids=["beyond-2^53", "shared-z-token", "r1-k1-n2"])
def test_trajectory_writer_matches_row_format(raw):
    fh = io.StringIO()
    _write_trajectories(fh, raw)
    assert fh.getvalue() == reference_trajectory_csv(raw)


def test_simulate_out_to_stdout_matches_row_format(c5, c5_file, capsys):
    assert main(["simulate", "--graph", c5_file, "--model", "ptnr", "--p", "0.3",
                 "--steps", "30", "--replicas", "3", "--seed", "4"]) == 0
    raw = simulate_ensemble(problem(c5, "ptnr", p=0.3, seed=4), 30, replicas=3)
    assert capsys.readouterr().out == reference_trajectory_csv(raw)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(MODEL_CODES)),
       st.sampled_from(["with", "without"]), st.integers(1, 6), st.integers(0, 40),
       st.sampled_from(["all", "geometric(1.5)", "times"]))
def test_simulate_out_matches_row_format(seed, code, sampling, replicas, steps, schedule):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng)
    if schedule == "times":
        schedule = ",".join(map(str, sorted(set(rng.integers(0, steps + 1, 3).tolist()))))
    p, C, t0 = float(rng.random()), int(rng.integers(1, 4)), int(rng.integers(3, 9))
    w0 = int(rng.integers(1, t0))
    with tempfile.TemporaryDirectory() as tmp:
        graph, out = os.path.join(tmp, "g.edges"), os.path.join(tmp, "t.csv")
        with open(graph, "w") as fh:
            fh.write("".join("%d %d\n" % e for e in g.edges))
        assert main(["simulate", "--graph", graph, "--model", code, "--p", repr(p),
                     "--c", str(C), "--t0", str(t0), "--w0", str(w0), "--sampling", sampling,
                     "--seed", str(seed), "--steps", str(steps), "--replicas", str(replicas),
                     "--schedule", schedule, "--out", out]) == 0
        with open(out) as fh:
            text = fh.read()
    P = problem(g, code, p=p, C=C, t0=t0, w0=w0, sampling=sampling, seed=seed)
    raw = simulate_ensemble(P, steps, schedule=schedule, replicas=replicas)
    assert text == reference_trajectory_csv(raw)
