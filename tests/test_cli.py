import hashlib
import json

import numpy as np
import pytest

from urnnet.cli import main

from conftest import C4_EDGES, C5_EDGES, FIG2_EDGES, K2_EDGES, grid_edges


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
])
def test_simulate_malformed_option_exit_2(c4_file, flag, value, capsys):
    rc = main(["simulate", "--graph", c4_file, "--model", "ftsr", "--steps", "10",
               flag, value])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_config_file_unknown_model_exit_2(c4_file, tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"graph = {c4_file}\nmodel = zzz\n")
    rc = main(["analyze", "--config", str(cfgfile)])
    assert rc == 2
    assert "zzz" in capsys.readouterr().err


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
], ids=["c4-ftsr-with", "grid3x3-ptsnr-without", "fig2-ftnr-directed"])
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
