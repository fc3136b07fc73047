from __future__ import annotations

import dataclasses
import json
import logging
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import hbmfg
from hbmfg import ControlPath, GameConfig, Regime, SinkRates, solve_mfg, stationary_solution
from hbmfg.cli import run as cli_run
from hbmfg.io import (
    ConfigError,
    config_sha256,
    fmt,
    jsonable,
    read_config,
    read_state_csv,
    write_aggregate_csv,
    write_manifest,
    write_state_csv,
    write_trajectory_csv,
)
from util_configs import config_doc, cycle_config, make_config, theorem_config, write_config

EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "configs", "example.json")


def example_doc() -> dict:
    with open(EXAMPLE, encoding="utf-8") as fh:
        return json.load(fh)


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


@pytest.mark.parametrize("sink", [False, True])
def test_read_config_round_trips_every_field(tmp_path, sink):
    # config_doc writes every field read_config reads, and nothing else
    cfg = make_config(3, 2, np.random.default_rng(5), sink=sink, fine=0.2, regime=Regime.ID2)
    back = read_config(write_config(tmp_path / "c.json", cfg))
    for f in dataclasses.fields(GameConfig):
        a, b = getattr(cfg, f.name), getattr(back, f.name)
        if isinstance(a, SinkRates):
            npt.assert_array_equal(a.direct, b.direct)
            npt.assert_array_equal(a.interaction, b.interaction)
        else:
            npt.assert_array_equal(a, b, err_msg=f.name)
    assert (back.q_sink is None) is not sink


@pytest.mark.parametrize("name", [
    "name", "dimensions.k", "rates.q_upp", "rates.q_sink.drect", "economics.fee_b",
    "scales.detla", "scales.delta_int", "scales.delta_dis", "flags.detailed_balanse"])
def test_read_config_refuses_unknown_fields(tmp_path, name):
    doc = example_doc()
    *path, key = name.split(".")
    section = doc
    for part in path:
        section = section.setdefault(part, {})
    section[key] = 0.5
    p = tmp_path / "typo.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"unknown field '{name}'"):
        read_config(str(p))


def test_read_config_rejects_non_numeric_fields(tmp_path):
    doc = example_doc()
    doc["scales"]["lambda"] = "fast"
    p = tmp_path / "bad_lambda.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="config rejected"):
        read_config(str(p))

    doc = example_doc()
    doc["economics"]["w"][0][0] = "high"
    p2 = tmp_path / "bad_w.json"
    p2.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="economics.w.*not numeric"):
        read_config(str(p2))


def test_read_config_requires_boolean_balance_flag(tmp_path):
    doc = example_doc()
    for flag in (True, False):
        doc["flags"]["detailed_balance"] = flag
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(doc))
        assert read_config(str(p)).detailed_balance is flag
    # a string "false" must not switch the balance requirement on
    for flag in ("false", 0, None):
        doc["flags"]["detailed_balance"] = flag
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="flags.detailed_balance"):
            read_config(str(p))

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


def test_read_state_csv_rejects_non_finite_entries(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        state = np.zeros((2, 2))
        state[1, 0] = bad
        p = tmp_path / "state.csv"
        write_state_csv(str(p), state)
        with pytest.raises(ConfigError, match="state.csv has a non-finite entry"):
            read_state_csv(str(p), 2, 2)

def test_trajectory_csv_layout(tmp_path):
    times = [0.0, 0.5]
    vals = np.arange(8.0).reshape(2, 2, 2)
    p = tmp_path / "traj.csv"
    write_trajectory_csv(str(p), times, vals, prefix="g")
    lines = p.read_text().splitlines()
    assert lines[0] == "t,g_1_1,g_1_2,g_2_1,g_2_2"
    assert lines[1].split(",") == ["0", "0", "1", "2", "3"]
    assert lines[2].split(",") == ["0.5", "4", "5", "6", "7"]


def test_csv_rows_are_fmt_joined(tmp_path):
    # every value must print as fmt prints it: signed zeros, infinities, nan,
    # subnormals, exact powers and many decades of both signs
    rng = np.random.default_rng(5)
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e17, -1e17, 0.1]
    values = np.concatenate([special, -10.0 ** rng.uniform(-300, 300, 14),
                             10.0 ** rng.uniform(-300, 300, 14), rng.normal(size=10)])
    mixed = values.reshape(4, 3, 4)
    # then rows a writer may reuse: each of the last two three times, rows
    # equal under == but not bit for bit (0.0 / -0.0), and rows of nan
    zero, nan = np.zeros((3, 4)), np.full((3, 4), np.nan)
    vals = np.concatenate([mixed, np.repeat(mixed[2:], 3, axis=0),
                           [zero, -zero, -zero, zero, nan, nan, np.where(np.eye(3, 4), nan, 1.0)]])
    times = [0.0, -0.0, 1e-7, 62.5, *np.linspace(-1.0, 1.0, len(vals) - 4)]
    p, q = tmp_path / "traj.csv", tmp_path / "aggregate.csv"
    write_trajectory_csv(str(p), times, vals)
    write_aggregate_csv(str(q), times, vals, vals[::-1])
    lines = p.read_text().splitlines()[1:]
    assert len(lines) == len(vals) == 17
    for k, line in enumerate(lines):
        assert line == ",".join(fmt(v) for v in [times[k], *vals[k].ravel()])
    assert lines[11].split(",")[1:] == ["-0"] * 12 and lines[13].split(",")[1:] == ["0"] * 12
    for k, line in enumerate(q.read_text().splitlines()[1:]):
        assert line == ",".join(fmt(v) for v in [times[k], *vals[k].ravel(),
                                                 *vals[::-1][k].ravel()])


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
    doc = example_doc()
    doc["rates"]["q_up"][2][0] = 1.0  # top row must be zero
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, summary, _ = cli(["validate", str(p), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert summary["ok"] is False and summary["violations"] == 1


@pytest.mark.parametrize("key, index, value, violation", [
    ("direct", (0, 1), 0.5, "q_sink.direct row 1 nonzero"),
    ("interaction", (0, 1, 0), 0.5, "q_sink.interaction row 1 nonzero"),
    ("interaction", None, [], "q_sink.interaction: expected shape (3, 2, 2), got (0,)"),
], ids=["direct-row-1", "interaction-row-1", "empty-interaction"])
def test_cli_validate_gives_sink_drops_the_step_down_rules(tmp_path, capsys, key, index,
                                                            value, violation):
    doc = config_doc(make_config(3, 2, np.random.default_rng(5), sink=True))
    sink = doc["rates"]["q_sink"]
    if index is None:
        sink[key] = value
    else:
        a = np.array(sink[key])
        a[index] = value
        sink[key] = a.tolist()
    p = tmp_path / "sink.json"
    p.write_text(json.dumps(doc))
    code, summary, _ = cli(["validate", str(p), "--out", str(tmp_path / "o")], capsys)
    assert code == 1 and summary["violations"] == 1
    vdoc = json.loads((tmp_path / "o" / "validation.json").read_text())
    assert vdoc["violations"][0].startswith(violation)


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

    # violations counts every profitable (node, level, from, to) switch,
    # past the cap on the stored list
    out = tmp_path / "ex"
    cli(["solve", EXAMPLE, "--out", str(out), "--T", "10", "--dt", "0.05"], capsys)
    doc = json.loads((out / "solve.json").read_text())
    g = np.loadtxt(out / "g.csv", delimiter=",", skiprows=1)[:, 1:].reshape(-1, 3, 3)
    gains = g[:, :, None, :] - g[:, :, :, None] - read_config(EXAMPLE).fee_B
    profitable = int((gains > 0.0).sum())  # staying gains exactly 0
    assert doc["violations"] == profitable == 1069
    assert len(doc["violations_head"]) == 20
    # the equilibrium's switching plan: every change point, each listing its
    # switching cells as 1-based [level, from, to] in lexicographic order
    controls = json.loads((out / "controls.json").read_text())
    assert controls == {"steps": 200, "change_points": [
        {"t": 0.0, "active": [[1, 2, 1], [1, 3, 1], [2, 2, 1], [2, 3, 1], [3, 2, 1], [3, 3, 1]]},
        {"t": 8.75, "active": [[1, 3, 1], [2, 3, 1], [3, 2, 1], [3, 3, 1]]},
        {"t": 8.8, "active": [[1, 3, 1], [2, 3, 1], [3, 3, 1]]},
        {"t": 9.0, "active": [[3, 3, 1]]},
        {"t": 9.15, "active": []},
    ]}


def test_controls_json_lists_each_piece_switching_cells(tmp_path, capsys, monkeypatch):
    # the solve's control path replaced by one of targets per step on a 2 x 3
    # grid; target[i, j] == j stays.  Each piece is one change point, and
    # several cells switching at once are listed as 1-based triples in order
    stay = [[0, 1, 2], [0, 1, 2]]
    mixed = [[1, 2, 2], [0, 1, 0]]
    u_path = ControlPath.of_steps([stay, stay, mixed, mixed, [[0, 0, 2], [0, 1, 2]]])

    def solve(*args, **kwargs):
        res = solve_mfg(*args, **kwargs)
        res.trajectory.u = u_path
        return res

    monkeypatch.setattr("hbmfg.cli.solve_mfg", solve)
    p = write_config(tmp_path / "c.json", make_config(2, 3, np.random.default_rng(3)))
    out = tmp_path / "o"
    cli(["solve", p, "--out", str(out), "--T", "0.5", "--dt", "0.1"], capsys)
    assert json.loads((out / "controls.json").read_text()) == {"steps": 5, "change_points": [
        {"t": 0.0, "active": []},
        {"t": 0.2, "active": [[1, 1, 2], [1, 2, 3], [2, 3, 1]]},
        {"t": 0.4, "active": [[1, 2, 1]]},
    ]}


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


def test_cli_numerical_failure_writes_error_and_manifest(tmp_path, capsys, monkeypatch):
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        code, summary, err = cli(["solve", EXAMPLE, "--out", str(out),
                                  "--T", "2e80", "--dt", "1e80"], capsys)
    assert code == 2 and summary["ok"] is False and "non-finite" in summary["error"]
    assert "numerical failure" in err
    error = json.loads((out / "error.json").read_text())
    assert error == {"cmd": "solve", "error": summary["error"]}
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["files"]) == ["error.json"]

    # LinAlgError is also a ValueError; it still counts as numerical
    def singular(cfg):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr("hbmfg.cli.stationary_solution", singular)
    code, _, _ = cli(["stationary", EXAMPLE, "--out", str(tmp_path / "s")], capsys)
    assert code == 2 and (tmp_path / "s" / "error.json").exists()


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


def test_cli_simulate_runs_replications_in_one_call(tmp_path, capsys, monkeypatch):
    calls = []
    batched = hbmfg.cli.simulate

    def spy(s0, u, T, seed, cfg, **kw):
        calls.append(seed)
        return batched(s0, u, T, seed, cfg, **kw)

    monkeypatch.setattr(hbmfg.cli, "simulate", spy)
    out = tmp_path / "o"
    code, _, _ = cli(["simulate", EXAMPLE, "--out", str(out), "--N", "120", "--T", "1",
                      "--reps", "4", "--seed", "9", "--samples", "5", "--per-rep"], capsys)
    assert code == 0
    assert calls == [[9, 10, 11, 12]]
    cfg = read_config(EXAMPLE)
    s0 = hbmfg.CountState.from_occupation(hbmfg.Occupation.uniform(3, 3).x, 120)
    events = []
    for r in range(4):
        solo = batched(s0, None, 1.0, 9 + r, cfg, samples=5)
        events.append(solo.events)
        write_trajectory_csv(str(tmp_path / "solo.csv"), solo.times, solo.x, prefix="x")
        assert (out / f"rep_{r:03d}.csv").read_bytes() == (tmp_path / "solo.csv").read_bytes()
    doc = json.loads((out / "simulate.json").read_text())
    assert doc["events_per_rep"] == events and doc["events"] == sum(events)


def test_cli_simulate_single_replication_takes_the_scalar_path(tmp_path, capsys, monkeypatch):
    calls = []
    scalar = hbmfg.cli.simulate

    def spy(s0, u, T, seed, cfg, **kw):
        calls.append(seed)
        return scalar(s0, u, T, seed, cfg, **kw)

    monkeypatch.setattr(hbmfg.cli, "simulate", spy)
    out = tmp_path / "o"
    code, summary, _ = cli(["simulate", EXAMPLE, "--out", str(out), "--N", "120", "--T", "1",
                            "--seed", "5", "--samples", "5"], capsys)
    assert code == 0 and calls == [5]
    cfg = read_config(EXAMPLE)
    s0 = hbmfg.CountState.from_occupation(hbmfg.Occupation.uniform(3, 3).x, 120)
    solo = scalar(s0, None, 1.0, 5, cfg, samples=5)
    write_aggregate_csv(str(tmp_path / "solo.csv"), solo.times, solo.x, np.zeros_like(solo.x))
    assert (out / "aggregate.csv").read_bytes() == (tmp_path / "solo.csv").read_bytes()
    doc = json.loads((out / "simulate.json").read_text())
    assert doc["events_per_rep"] == [solo.events] == [summary["events"]]


def test_cli_simulate_refuses_huge_populations_and_negative_seeds(tmp_path, capsys):
    negative = "seed must be a nonnegative integer, got -1"
    for extra, why in ((["--N", str(2**53 + 1)], "at most 2**53"),
                       (["--N", str(10**20)], "at most 2**53"),
                       (["--N", "10", "--seed", "-1"], negative),
                       (["--N", "10", "--reps", "2", "--seed", "-1"], negative)):
        out = tmp_path / f"o{len(os.listdir(tmp_path))}"
        code, summary, err = cli(["simulate", EXAMPLE, "--T", "0.1", *extra,
                                  "--out", str(out)], capsys)
        assert code == 1 and summary["ok"] is False and why in summary["error"]
        assert "numerical failure" not in err
        assert os.listdir(out) == []


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
    doc = example_doc()
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


@pytest.mark.parametrize("field, value, why", [
    ("lambda", float("nan"), "must be finite"), ("delta", float("inf"), "must be finite"),
    ("delta_int", float("nan"), "unknown field"), ("lambda", True, "must be a number"),
    ("delta_dis", False, "unknown field")])
def test_cli_rejects_non_finite_and_boolean_scales(tmp_path, capsys, field, value, why):
    # Python's JSON reader takes NaN, Infinity and true where a scale belongs
    doc = example_doc()
    doc["scales"][field] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    for args in (["solve", str(p), "--T", "1", "--dt", "0.1"],
                 ["simulate", str(p), "--N", "10", "--T", "1"],
                 ["stationary", str(p)]):
        out = tmp_path / args[0]
        code, summary, _ = cli(args + ["--out", str(out)], capsys)
        assert code == 1 and summary["ok"] is False
        assert field in summary["error"] and why in summary["error"]
        assert os.listdir(out) == []


# each edit puts a boolean or a string where read_config reads a number
_NOT_NUMBERS = {
    "dimensions.n": lambda doc: doc["dimensions"].update(n=True),
    "scales.lambda": lambda doc: doc["scales"].update({"lambda": "2.5"}),
    "economics.w": lambda doc: doc["economics"].update(
        w=[[str(v) for v in row] for row in doc["economics"]["w"]]),
    "economics.fee_H": lambda doc: doc["economics"]["fee_H"].__setitem__(0, True),
}


@pytest.mark.parametrize("field", sorted(_NOT_NUMBERS))
def test_cli_refuses_booleans_and_strings_where_a_number_is_read(tmp_path, capsys, field):
    # JSON's true and numpy's reading of "2.5" would pass as the numbers 1 and 2.5
    doc = example_doc()
    _NOT_NUMBERS[field](doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _, _ = cli(["validate", str(p), "--out", str(tmp_path / "v")], capsys)
    violations = json.loads((tmp_path / "v" / "validation.json").read_text())["violations"]
    assert code == 1 and len(violations) == 1 and f"'{field}' is not numeric" in violations[0]
    out = tmp_path / "solve"
    code, summary, _ = cli(["solve", str(p), "--T", "1", "--dt", "0.1", "--out", str(out)], capsys)
    assert code == 1 and field in summary["error"] and os.listdir(out) == []
    # a sweep value is read by the same rule
    section, key = field.split(".")
    value = json.dumps(doc[section][key])
    code, _, _ = cli(["sweep", EXAMPLE, "--param", field, "--values", value, "--op", "validate",
                      "--out", str(tmp_path / "s")], capsys)
    sweep = json.loads((tmp_path / "s" / "sweep.json").read_text())
    assert code == 1 and [r["status"] for r in sweep["results"]] == [1]


def test_cli_json_is_strict_when_no_switch_exists(tmp_path, capsys):
    # with one behaviour there is no switch: cone_worst and both margins are
    # -inf, which the artifacts and the summary write as null
    def strict(text):
        return json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in JSON output"))

    p = write_config(tmp_path / "one.json", make_config(2, 1, np.random.default_rng(8)))
    docs = {}
    for args in (["solve", p, "--T", "2", "--dt", "0.05"], ["stationary", p]):
        out = tmp_path / args[0]
        assert cli_run(args + ["--out", str(out)]) == 0
        summary = strict(capsys.readouterr().out)
        for f in sorted(out.glob("*.json")):
            docs[f.name] = strict(f.read_text())
    assert summary["margin"] is None and summary["margin_leading"] is None
    assert docs["solve.json"]["cone_worst"] is None
    assert docs["stationary.json"]["margin"] is None


def test_cli_stationary_validates_after_overrides(tmp_path, capsys):
    doc = example_doc()
    doc["scales"]["delta"] = -0.05
    p = str(tmp_path / "odd.json")
    with open(p, "w") as fh:
        json.dump(doc, fh)
    code, summary, _ = cli(["stationary", p, "--out", str(tmp_path / "a")], capsys)
    assert code == 1 and "delta: must be finite and positive" in summary["error"]
    # the override is validated, not the file's delta
    code, _, _ = cli(["stationary", p, "--out", str(tmp_path / "b"),
                      "--delta", "0.05"], capsys)
    assert code == 0


def test_cli_refuses_misspelled_fields(tmp_path, capsys):
    # a misspelled detailed_balance flag would skip the balance check; a
    # misspelled sweep path would rerun one config under every value
    doc = example_doc()
    doc["rates"]["q_down"][2][1] = 0.5  # breaks detailed balance with q_up[1][1]
    doc["flags"] = {"detailed_balanse": True}
    p = tmp_path / "typo.json"
    p.write_text(json.dumps(doc))
    code, _, _ = cli(["validate", str(p), "--out", str(tmp_path / "v")], capsys)
    assert code == 1
    vdoc = json.loads((tmp_path / "v" / "validation.json").read_text())
    assert vdoc["violations"] == ["config has unknown field 'flags.detailed_balanse'"]
    for args in (["stationary", str(p)],
                 ["sweep", EXAMPLE, "--param", "scales.detla", "--values", "0.1", "0.05"]):
        out = tmp_path / args[0]
        code, summary, _ = cli(args + ["--out", str(out)], capsys)
        assert code == 1 and "unknown field" in summary["error"]
        assert os.listdir(out) == []


def test_cli_sweep_refuses_non_finite_values(tmp_path, capsys):
    huge = "1" + "0" * 400   # an integer beyond float64's range
    for values in (["NaN", "0.05"], ["0.05", "Infinity"], ["[-Infinity]"], ["1e400"],
                   ["[0.5, NaN, 0.5]"], ["0.05", huge], [f"[0.5, -{huge}]"]):
        out = tmp_path / f"o{len(os.listdir(tmp_path))}"
        code, summary, _ = cli(["sweep", EXAMPLE, "--out", str(out), "--param",
                                "scales.delta", "--values", *values], capsys)
        assert code == 1 and "non-finite" in summary["error"], values
        assert os.listdir(out) == []


@pytest.mark.parametrize("field", ["scales.lambda", "economics.fee_H"])
def test_cli_refuses_integers_beyond_float64(tmp_path, capsys, field):
    # JSON allows the integer, but float() and numpy cannot convert it
    doc = example_doc()
    section, key = field.split(".")
    doc[section][key] = 10**400 if key == "lambda" else [0.2, -10**400, 0.2]
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    code, _, _ = cli(["validate", str(p), "--out", str(tmp_path / "v")], capsys)
    violations = json.loads((tmp_path / "v" / "validation.json").read_text())["violations"]
    assert code == 1 and len(violations) == 1
    assert f"'{field}' holds an integer beyond float64's range" in violations[0]


def test_cli_sweep_sets_and_refuses_list_indices(tmp_path, capsys):
    out = tmp_path / "ok"
    code, _, _ = cli(["sweep", EXAMPLE, "--param", "economics.fee_H.1", "--values", "0.3",
                      "--op", "validate", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads((out / "val_0" / "config.json").read_text())
    assert doc["economics"]["fee_H"] == [0.2, 0.3, 0.2]
    for param, why in (("economics.fee_H.9", "bad index '9'"),
                       ("rates.q_up.0.x", "bad index 'x'"),
                       ("scales.delta.x", "does not address a field")):
        out = tmp_path / param
        code, summary, _ = cli(["sweep", EXAMPLE, "--param", param, "--values", "0.3",
                                "--op", "validate", "--out", str(out)], capsys)
        assert code == 1 and why in summary["error"], param
        assert os.listdir(out) == []


def test_cli_sweep_takes_negative_values_in_exponent_notation(tmp_path, capsys):
    # argparse alone would read -1e-3 as an option; validation refuses the negative delta
    out = tmp_path / "o"
    code, summary, _ = cli(["sweep", EXAMPLE, "--out", str(out), "--param", "scales.delta",
                            "--values", "0.05", "-1e-3"], capsys)
    assert code == 1 and summary["runs"] == 2 and summary["failed"] == 1
    doc = json.loads((out / "sweep.json").read_text())
    assert [(e["value"], e["status"]) for e in doc["results"]] == [(0.05, 0), (-1e-3, 1)]


@pytest.mark.parametrize("regime, delta", [("id1", 1e200), ("id3", 1e-170), ("id3", 1e200)])
def test_cli_rejects_scales_that_overflow_or_underflow(tmp_path, capsys, regime, delta):
    # delta is fine, but delta^2 is inf, or 0 where delta_dis must be positive
    doc = example_doc()
    doc["scales"].update(regime=regime, delta=delta)
    p = tmp_path / "extreme.json"
    p.write_text(json.dumps(doc))
    for args in (["stationary", str(p)], ["solve", str(p), "--T", "1", "--dt", "0.1"]):
        out = tmp_path / args[0]
        code, summary, _ = cli(args + ["--out", str(out)], capsys)
        assert code == 1 and "derived scales" in summary["error"]
        assert os.listdir(out) == []
    code, _, _ = cli(["stationary", EXAMPLE, "--out", str(tmp_path / "o"),
                      "--regime", regime, "--delta", repr(delta)], capsys)
    assert code == 1 and os.listdir(tmp_path / "o") == []


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
    broken = tmp_path / "broken.json"
    broken.write_text('{"scales": {')
    for path, why in ((tmp_path / "ghost.json", "cannot read config"),
                      (broken, "not valid JSON")):
        out = tmp_path / f"sweep_{path.stem}"
        code3, summary3, _ = cli(["sweep", str(path), "--out", str(out),
                                  "--param", "scales.delta", "--values", "0.1"], capsys)
        assert code3 == 1 and why in summary3["error"]
        assert not (out / "manifest.json").exists()
    # a non-finite horizon is a rejected input, not a hang or a traceback
    for cmd in (["solve", EXAMPLE, "--T", "inf"],
                ["simulate", EXAMPLE, "--N", "10", "--T", "inf"]):
        out = tmp_path / f"inf_{cmd[0]}"
        code4, summary4, _ = cli(cmd + ["--out", str(out)], capsys)
        assert code4 == 1 and summary4["ok"] is False and "finite" in summary4["error"]
        assert not (out / "manifest.json").exists()


def test_cli_solve_rejects_non_finite_terminal_payoff(tmp_path, capsys):
    cfg = read_config(EXAMPLE)
    gT = np.zeros((cfg.n, cfg.m))
    gT[0, 1] = np.nan
    g_path = tmp_path / "g.csv"
    write_state_csv(str(g_path), gT)
    out = tmp_path / "o"
    code, summary, err = cli(["solve", EXAMPLE, "--T", "1", "--dt", "0.1",
                              "--gT", str(g_path), "--out", str(out)], capsys)
    assert code == 1 and summary["ok"] is False
    assert "g.csv" in summary["error"] and "non-finite" in summary["error"]
    assert "numerical failure" not in err
    assert os.listdir(out) == []


def test_cli_solve_refuses_a_trajectory_as_a_state_file(tmp_path, capsys):
    # a solve's x.csv and g.csv hold one row per node: as --x0 or --gT they
    # are refused by name and row count, not read at t = 0
    traj = tmp_path / "traj"
    code, _, _ = cli(["solve", EXAMPLE, "--T", "1", "--dt", "0.1", "--out", str(traj)], capsys)
    assert code == 0
    for flag, name in (("--x0", "x.csv"), ("--gT", "g.csv")):
        out = tmp_path / flag.strip("-")
        code, summary, err = cli(["solve", EXAMPLE, "--T", "1", "--dt", "0.1", flag,
                                  str(traj / name), "--out", str(out)], capsys)
        assert code == 1 and summary["ok"] is False
        assert f"state file {name} has 11 data rows" in summary["error"]
        assert "numerical failure" not in err
        assert os.listdir(out) == []


def test_cli_solve_without_rates_needs_a_horizon(tmp_path, capsys):
    cfg = GameConfig(
        n=1, m=2, q_up=np.zeros((1, 2)), q_down=np.zeros((1, 2)),
        q_up_evo=np.zeros((1, 2, 2)), q_down_evo=np.zeros((1, 2, 2)),
        w=np.ones((1, 2)), fee_B=1.0 - np.eye(2), fee_H=np.zeros(1),
    )
    p = write_config(tmp_path / "still.json", cfg)
    out = tmp_path / "o"
    code, summary, err = cli(["solve", p, "--out", str(out)], capsys)
    assert code == 1 and summary["ok"] is False and "--T" in summary["error"]
    assert "numerical failure" not in err
    assert os.listdir(out) == []
    code, _, _ = cli(["solve", p, "--out", str(tmp_path / "t"), "--T", "1"], capsys)
    assert code == 0

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
