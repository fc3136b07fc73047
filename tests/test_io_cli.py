from __future__ import annotations

import json
import logging
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import hbmfg
from hbmfg import Regime, stationary_solution
from hbmfg.cli import _control_change_points
from hbmfg.cli import run as cli_run
from hbmfg.io import (
    ConfigError,
    config_sha256,
    fmt,
    jsonable,
    read_config,
    read_state_csv,
    write_manifest,
    write_state_csv,
    write_trajectory_csv,
)
from util_configs import cycle_config, make_config, theorem_config, write_config

EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "configs", "example.json")


# ---------------------------------------------------------------- io layer


def test_read_config_example():
    cfg = read_config(EXAMPLE)
    assert (cfg.n, cfg.m) == (3, 3)
    assert cfg.regime is Regime.ID1
    assert cfg.detailed_balance
    assert cfg.delta == 0.05
    assert cfg.delta_int == pytest.approx(0.05 ** 2)
    assert cfg.q_up.shape == (3, 3)
    assert cfg.q_up_evo.shape == (3, 3, 3)


def test_read_config_error_messages(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"dimensions": {"n": 3,}}')
    with pytest.raises(ConfigError, match=r"line 1, column"):
        read_config(str(bad))

    nosec = tmp_path / "nosec.json"
    nosec.write_text('{"dimensions": {"n": 2, "m": 2}}')
    with pytest.raises(ConfigError, match="rates"):
        read_config(str(nosec))

    with pytest.raises(ConfigError, match="cannot read"):
        read_config(str(tmp_path / "missing.json"))


def test_read_config_rejects_non_numeric_fields(tmp_path):
    doc = json.loads(open(EXAMPLE).read())
    doc["scales"]["lambda"] = "fast"
    p = tmp_path / "bad_lambda.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="config rejected"):
        read_config(str(p))

    doc = json.loads(open(EXAMPLE).read())
    doc["economics"]["w"][0][0] = "high"
    p2 = tmp_path / "bad_w.json"
    p2.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="economics.w.*not numeric"):
        read_config(str(p2))


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(17)
    values = list(rng.normal(size=20)) + [0.1, 1e-300, 1e300, -0.0, 3.0]
    for v in values:
        assert float(fmt(v)) == float(v)


def test_jsonable_basic_types():
    out = jsonable({
        "flag": np.bool_(True),
        "plain": False,
        "arr": np.arange(3.0),
        "z": np.complex128(1 + 2j),
        "i": np.int64(7),
    })
    assert out["flag"] is True and out["plain"] is False
    assert out["arr"] == [0.0, 1.0, 2.0]
    assert out["z"] == [1.0, 2.0]
    assert out["i"] == 7
    assert json.dumps(out)  # serializable end to end


def test_state_csv_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    state = rng.normal(size=(3, 2))
    p = tmp_path / "state.csv"
    write_state_csv(str(p), state)
    back = read_state_csv(str(p), 3, 2)
    npt.assert_array_equal(back, state)  # %.17g is lossless for doubles
    header = p.read_text().splitlines()[0]
    assert header == "t,x_1_1,x_1_2,x_2_1,x_2_2,x_3_1,x_3_2"


def test_read_state_csv_rejects_wrong_width(tmp_path):
    p = tmp_path / "state.csv"
    write_state_csv(str(p), np.zeros((2, 2)))
    with pytest.raises(ConfigError, match="columns"):
        read_state_csv(str(p), 3, 2)


def test_trajectory_csv_layout(tmp_path):
    times = [0.0, 0.5]
    vals = np.arange(8.0).reshape(2, 2, 2)
    p = tmp_path / "traj.csv"
    write_trajectory_csv(str(p), times, vals, prefix="g")
    lines = p.read_text().splitlines()
    assert lines[0] == "t,g_1_1,g_1_2,g_2_1,g_2_2"
    assert lines[1].split(",") == ["0", "0", "1", "2", "3"]
    assert lines[2].split(",") == ["0.5", "4", "5", "6", "7"]


def test_manifest_is_deterministic(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "a.txt").write_text("alpha")
    sub = out / "sub"
    sub.mkdir()
    (sub / "b.txt").write_text("beta")
    write_manifest(str(out), ["hbmfg", "validate", "cfg.json"], "deadbeef", "0.1.0")
    first = (out / "manifest.json").read_bytes()
    write_manifest(str(out), ["hbmfg", "validate", "cfg.json"], "deadbeef", "0.1.0")
    assert (out / "manifest.json").read_bytes() == first
    doc = json.loads(first)
    assert doc["command"] == ["hbmfg", "validate", "cfg.json"]
    assert doc["config_sha256"] == "deadbeef"
    assert set(doc["files"]) == {"a.txt", "sub/b.txt"}  # manifest itself excluded
    assert doc["version"] == hbmfg.__version__


# ---------------------------------------------------------------- cli layer


def cli(args, capsys):
    code = cli_run(args)
    captured = capsys.readouterr()
    lines = [ln for ln in captured.out.strip().splitlines() if ln]
    summary = json.loads(lines[-1]) if lines else {}
    return code, summary, captured.err


def test_cli_validate_ok(tmp_path, capsys):
    out = tmp_path / "o"
    code, summary, _ = cli(["validate", EXAMPLE, "--out", str(out)], capsys)
    assert code == 0
    assert summary["ok"] is True and summary["violations"] == 0
    doc = json.loads((out / "validation.json").read_text())
    assert doc == {"ok": True, "violations": []}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == config_sha256(EXAMPLE)
    assert "validation.json" in manifest["files"]


def test_cli_validate_flags_violations(tmp_path, capsys):
    doc = json.loads(open(EXAMPLE).read())
    doc["rates"]["q_up"][2][0] = 1.0  # top row must be zero
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, summary, _ = cli(["validate", str(p), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert summary["ok"] is False and summary["violations"] == 1


def test_cli_validate_malformed_json(tmp_path, capsys):
    p = tmp_path / "nope.json"
    p.write_text("{")
    code, summary, _ = cli(["validate", str(p), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert summary["ok"] is False
    vdoc = json.loads((tmp_path / "o" / "validation.json").read_text())
    assert "line" in vdoc["violations"][0]


def test_cli_stationary_matches_library(tmp_path, capsys):
    out = tmp_path / "o"
    code, summary, _ = cli(["stationary", EXAMPLE, "--out", str(out)], capsys)
    assert code == 0
    sol = stationary_solution(read_config(EXAMPLE))
    assert summary["b"] == sol.b_1based
    doc = json.loads((out / "stationary.json").read_text())
    assert doc["b"] == sol.b_1based
    assert doc["margin"] == pytest.approx(sol.margin)
    x_star = read_state_csv(str(out / "x_star.csv"), 3, 3)
    npt.assert_array_equal(x_star, sol.x_corrected)


def test_cli_stationary_scale_overrides(tmp_path, capsys):
    out = tmp_path / "o"
    code, _, _ = cli(["stationary", EXAMPLE, "--out", str(out),
                      "--regime", "id3", "--delta", "0.01"], capsys)
    assert code == 0
    doc = json.loads((out / "stationary.json").read_text())
    assert doc["regime"] == "id3"
    assert doc["delta"] == 0.01
    assert doc["delta_int"] == pytest.approx(0.01)  # re-derived from the regime
    assert doc["delta_dis"] == pytest.approx(1e-4)
    assert doc["g2"] is None  # no second-order payoff term in this regime


def test_cli_stability_matches_library(tmp_path, capsys):
    out = tmp_path / "o"
    code, summary, _ = cli(["stability", EXAMPLE, "--out", str(out)], capsys)
    assert code == 0
    assert (summary["zero"], summary["negative"], summary["positive"]) == (2, 6, 0)
    doc = json.loads((out / "stability.json").read_text())
    assert doc["size"] == 8
    assert len(doc["eigenvalues"]) == 8
    assert doc["geometric_multiplicity_zero"] == 2
    assert doc["d_block"]["agree"] is True
    assert len(doc["rate_ordering"]) == 3


def test_cli_stability_rejects_non_square(tmp_path, capsys):
    rng = np.random.default_rng(2)
    p = write_config(tmp_path / "rect.json", make_config(3, 2, rng, db=True))
    code, summary, err = cli(["stability", p, "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert summary["ok"] is False
    assert "square case required" in err


def test_cli_solve_end_to_end(tmp_path, capsys):
    rng = np.random.default_rng(5)
    p = write_config(tmp_path / "cone.json", theorem_config(2, 2, rng, delta=0.05))
    out = tmp_path / "o"
    code, summary, _ = cli(["solve", p, "--out", str(out),
                            "--T", "4", "--dt", "0.05"], capsys)
    assert code == 0
    assert summary["converged"] is True
    doc = json.loads((out / "solve.json").read_text())
    assert doc["iterations"] == 1
    assert doc["violations"] == 0
    assert doc["cone_worst"] <= 0.0
    assert doc["turnpike"] is not None
    assert doc["flipped_steps"] == 0
    x_lines = (out / "x.csv").read_text().splitlines()
    g_lines = (out / "g.csv").read_text().splitlines()
    assert len(x_lines) == 82 and len(g_lines) == 82  # header + 81 nodes
    controls = json.loads((out / "controls.json").read_text())
    assert controls["steps"] == 80
    assert controls["change_points"] == [{"t": 0.0, "active": []}]


def test_control_change_points_list_switching_cells():
    # targets per step on a 2 x 3 grid; target[i, j] == j stays
    stay = [[0, 1, 2], [0, 1, 2]]
    mixed = [[1, 2, 2], [0, 1, 0]]
    u_path = np.array([stay, stay, mixed, mixed, [[0, 0, 2], [0, 1, 2]]])
    times = np.linspace(0.0, 0.5, 6)
    assert _control_change_points(times, u_path) == [
        {"t": 0.0, "active": []},
        {"t": 0.2, "active": [[1, 1, 2], [1, 2, 3], [2, 3, 1]]},
        {"t": 0.4, "active": [[1, 2, 1]]},
    ]


def test_cli_solve_nonconvergence_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(29)
    cfg = make_config(2, 2, rng, db=True, balanced_evo=True, gap=3.0,
                      fee_switch=0.05)
    p = write_config(tmp_path / "cheap.json", cfg)
    out = tmp_path / "o"
    code, summary, _ = cli(["solve", p, "--out", str(out),
                            "--T", "3", "--dt", "0.05", "--max-iter", "1"], capsys)
    assert code == 2
    assert summary["converged"] is False
    assert (out / "solve.json").exists()  # artifacts survive non-convergence


def test_cli_solve_control_cycle_exit_code(tmp_path, capsys):
    p = write_config(tmp_path / "cycle.json", cycle_config())
    out = tmp_path / "o"
    code, summary, _ = cli(["solve", p, "--out", str(out),
                            "--T", "4", "--dt", "0.05"], capsys)
    assert code == 2
    assert summary["converged"] is False
    for name in ("x.csv", "g.csv", "controls.json", "solve.json", "manifest.json"):
        assert (out / name).exists(), name
    doc = json.loads((out / "solve.json").read_text())
    assert doc["oscillating"] is True and doc["flipped_steps"] > 0
    code, _, err = cli(["solve", p, "--out", str(tmp_path / "d"), "--damping", "0.5"],
                       capsys)
    assert code == 1 and "--damping" in err


def test_cli_solve_honors_initial_state_file(tmp_path, capsys):
    rng = np.random.default_rng(41)
    p = write_config(tmp_path / "cfg.json", theorem_config(2, 2, rng))
    x0 = np.array([[0.7, 0.1], [0.1, 0.1]])
    x0_path = tmp_path / "x0.csv"
    write_state_csv(str(x0_path), x0)
    out = tmp_path / "o"
    code, _, _ = cli(["solve", p, "--out", str(out), "--T", "2", "--dt", "0.1",
                      "--x0", str(x0_path)], capsys)
    assert code == 0
    first = (out / "x.csv").read_text().splitlines()[1].split(",")
    npt.assert_array_equal(np.array(first[1:], dtype=float).reshape(2, 2), x0)


def test_cli_simulate_outputs_and_per_rep(tmp_path, capsys):
    out = tmp_path / "o"
    code, summary, _ = cli(["simulate", EXAMPLE, "--out", str(out),
                            "--N", "200", "--T", "1", "--reps", "2",
                            "--seed", "3", "--samples", "4", "--per-rep"], capsys)
    assert code == 0
    assert summary["events"] > 0
    doc = json.loads((out / "simulate.json").read_text())
    assert doc["N"] == 200 and doc["replications"] == 2 and doc["rng"] == "pcg64"
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert len(agg) == 6  # header + 5 grid nodes
    assert agg[0].startswith("t,mean_x_1_1") and "stderr_x_3_3" in agg[0]
    assert (out / "rep_000.csv").exists() and (out / "rep_001.csv").exists()


def test_cli_simulate_same_seed_same_bytes(tmp_path, capsys):
    args = ["simulate", EXAMPLE, "--N", "150", "--T", "1", "--reps", "2",
            "--seed", "11", "--samples", "4"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli(args + ["--out", str(a)], capsys)[0] == 0
    assert cli(args + ["--out", str(b)], capsys)[0] == 0
    assert (a / "aggregate.csv").read_bytes() == (b / "aggregate.csv").read_bytes()


def test_cli_analysis_logs_no_warnings(tmp_path, capsys, caplog):
    with caplog.at_level(logging.DEBUG):
        assert cli(["stationary", EXAMPLE, "--out", str(tmp_path / "st")], capsys)[0] == 0
        assert cli(["stability", EXAMPLE, "--out", str(tmp_path / "sp")], capsys)[0] == 0
        assert cli(["solve", EXAMPLE, "--T", "10", "--dt", "0.05",
                    "--out", str(tmp_path / "sol")], capsys)[0] == 0
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []


def test_cli_solve_and_simulate_reject_invalid_config(tmp_path, capsys):
    doc = json.loads(open(EXAMPLE).read())
    doc["rates"]["q_up"][2] = [0.5, 0.5, 0.5]  # upgrades out of the top level
    p = str(tmp_path / "bad.json")
    with open(p, "w") as fh:
        json.dump(doc, fh)
    for args in (["solve", p, "--T", "5", "--dt", "0.05"],
                 ["simulate", p, "--N", "100", "--T", "1"]):
        out = tmp_path / args[0]
        code, summary, err = cli(args + ["--out", str(out)], capsys)
        assert code == 1
        assert summary["ok"] is False and "q_up row 3 nonzero" in summary["error"]
        assert "fails validation" in err
        assert not (out / "manifest.json").exists()


def test_cli_stationary_validates_after_overrides(tmp_path, capsys):
    doc = json.loads(open(EXAMPLE).read())
    doc["scales"]["delta_int"] = 0.5  # inconsistent with the id1 coupling
    p = str(tmp_path / "odd.json")
    with open(p, "w") as fh:
        json.dump(doc, fh)
    code, summary, _ = cli(["stationary", p, "--out", str(tmp_path / "a")], capsys)
    assert code == 1 and "delta_int" in summary["error"]
    # --delta re-derives both scales from the regime, so the result is valid
    code, _, _ = cli(["stationary", p, "--out", str(tmp_path / "b"),
                      "--delta", "0.05"], capsys)
    assert code == 0


def test_cli_sweep_stationary(tmp_path, capsys):
    out = tmp_path / "o"
    code, summary, _ = cli(["sweep", EXAMPLE, "--out", str(out),
                            "--param", "scales.delta",
                            "--values", "0.1", "0.05"], capsys)
    assert code == 0
    doc = json.loads((out / "sweep.json").read_text())
    assert [e["value"] for e in doc["results"]] == [0.1, 0.05]
    assert all(e["status"] == 0 for e in doc["results"])
    assert (out / "val_0" / "stationary.json").exists()
    assert (out / "val_1" / "config.json").exists()


def test_cli_usage_and_missing_file(tmp_path, capsys):
    code, _, err = cli(["solve", EXAMPLE, "--bogus"], capsys)
    assert code == 1 and "unrecognized arguments" in err
    code2, summary2, _ = cli(["stationary", str(tmp_path / "ghost.json"),
                              "--out", str(tmp_path / "o")], capsys)
    assert code2 == 1 and summary2["ok"] is False


def test_cli_out_env_fallback(tmp_path, capsys, monkeypatch):
    env_out = tmp_path / "envout"
    monkeypatch.setenv("MFG_OUT", str(env_out))
    monkeypatch.chdir(tmp_path)
    code, summary, _ = cli(["validate", EXAMPLE], capsys)
    assert code == 0
    assert summary["out"] == str(env_out)
    assert (env_out / "validation.json").exists()


def test_cli_module_entry_point(tmp_path):
    # one true subprocess round-trip through python -m hbmfg
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "hbmfg", "validate", EXAMPLE, "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip().splitlines()[-1])["ok"] is True
