from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import logging
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

import hbmfg
import hbmfg.io as hio
from hbmfg import Control, GameConfig, Regime, SinkRates, solve_mfg, stationary_solution
from hbmfg.cli import run as cli_run
from hbmfg.io import (
    ConfigError,
    config_sha256,
    fmt,
    jsonable,
    read_config,
    read_state_csv,
    write_aggregate_csv,
    write_chunks,
    write_json,
    write_manifest,
    write_state_csv,
    write_trajectory_csv,
)
from hbmfg.kinetics import MAX_STEPS, NODE_BYTES
from hbmfg.simulator import _SPEC_BYTES
from util_configs import (
    config_doc,
    cycle_config,
    make_config,
    stayput_config,
    theorem_config,
    write_config,
)

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


@pytest.mark.parametrize("keys", [pytest.param(name.split("."), id=name) for name in (
    "name", "dimensions.k", "rates.q_upp", "rates.q_sink.drect", "economics.fee_b",
    "scales.detla", "scales.delta_int", "scales.delta_dis", "flags.detailed_balanse")] + [
    # a key holding a dot spells a field's dotted name without being that field
    pytest.param(["scales.delta"], id="'scales.delta'"),
    pytest.param(["rates", "q_sink.direct"], id="rates.'q_sink.direct'")])
def test_read_config_refuses_unknown_fields(tmp_path, keys):
    doc = example_doc()
    *path, key = keys
    section = doc
    for part in path:
        section = section.setdefault(part, {})
    section[key] = 0.5
    p = tmp_path / "typo.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=re.escape(f"unknown field '{'.'.join(keys)}'")):
        read_config(str(p))


def sink_doc() -> dict:
    doc = example_doc()
    doc["rates"]["q_sink"] = {"direct": doc["rates"]["q_down"],
                              "interaction": doc["rates"]["q_down_evo"]}
    return doc


_DEFECTS = {"deleted": None, "null": None, "string": "str", "list": [1, [2]], "object": {}}
_NUMBERS = ["dimensions.n", "dimensions.m", "scales.lambda", "scales.delta"]
_ARRAYS = ["rates.q_up", "rates.q_down", "rates.q_up_evo", "rates.q_down_evo",
           "rates.q_sink.direct", "rates.q_sink.interaction",
           "economics.w", "economics.fee_B", "economics.fee_H"]
_OBJECTS = ["dimensions", "rates", "rates.q_sink", "economics", "scales", "flags"]
_BALANCE = "config field 'flags.detailed_balance' must be true or false"

# read_config's message wherever the field's kind does not settle it: a missing
# or null section, an empty object, the optional fields and the two fields that
# are not numbers; None where the config still reads
_PINNED = {
    ("dimensions", "deleted"): "config is missing the 'dimensions' section",
    ("dimensions", "null"): "config is missing the 'dimensions' section",
    ("dimensions", "object"): "config is missing field 'dimensions.n'",
    ("rates", "deleted"): "config is missing the 'rates' section",
    ("rates", "null"): "config is missing the 'rates' section",
    ("rates", "object"): "config is missing field 'rates.q_up'",
    ("rates.q_sink", "deleted"): None,
    ("rates.q_sink", "null"): "config field 'rates.q_sink' must be an object",
    ("rates.q_sink", "object"): "config is missing field 'rates.q_sink.direct'",
    ("economics", "deleted"): "config is missing the 'economics' section",
    ("economics", "null"): "config is missing the 'economics' section",
    ("economics", "object"): "config is missing field 'economics.w'",
    ("scales", "deleted"): "config is missing the 'scales' section",
    ("scales", "null"): "config is missing the 'scales' section",
    ("scales", "object"): "config is missing field 'scales.lambda'",
    ("scales.regime", "deleted"): "config is missing field 'scales.regime'",
    ("scales.regime", "null"): "config rejected: unknown regime: None",
    ("scales.regime", "string"): "config rejected: 'str' is not a valid Regime",
    ("scales.regime", "list"): "config rejected: unknown regime: [1, [2]]",
    ("scales.regime", "object"): "config rejected: unknown regime: {}",
    ("flags", "deleted"): None,
    ("flags", "null"): None,
    ("flags", "object"): None,
    ("flags.detailed_balance", "deleted"): None,
    ("flags.detailed_balance", "null"): _BALANCE,
    ("flags.detailed_balance", "string"): _BALANCE,
    ("flags.detailed_balance", "list"): _BALANCE,
    ("flags.detailed_balance", "object"): _BALANCE,
}


def _refusal(name: str, defect: str):
    """read_config's message for the defect in the field, as a regular expression;
    None where the config still reads."""
    if (name, defect) in _PINNED:
        message = _PINNED[name, defect]
        return None if message is None else re.escape(message)
    if defect == "deleted":
        return re.escape(f"config is missing field '{name}'")
    if name in _OBJECTS:
        return re.escape(f"config {'field' if '.' in name else 'section'} '{name}' "
                         "must be an object")
    if name in _ARRAYS and defect == "list":   # numpy names the ragged list
        return re.escape(f"config field '{name}' is not numeric: setting an array element "
                         "with a sequence") + ".*"
    return re.escape(f"config rejected: field '{name}' is not numeric: "
                     f"{json.dumps(_DEFECTS[defect])} must be a number")


@pytest.mark.parametrize("defect", sorted(_DEFECTS))
@pytest.mark.parametrize("name", sorted(
    _NUMBERS + _ARRAYS + _OBJECTS + ["scales.regime", "flags.detailed_balance"]))
def test_read_config_refuses_each_field_by_its_kind(tmp_path, name, defect):
    doc = sink_doc()
    *path, key = name.split(".")
    section = doc
    for part in path:
        section = section[part]
    if defect == "deleted":
        del section[key]
    else:
        section[key] = _DEFECTS[defect]
    p = tmp_path / "defect.json"
    p.write_text(json.dumps(doc))
    expected = _refusal(name, defect)
    if expected is None:   # an optional field that is absent, or an empty flags section
        cfg = read_config(str(p))
        assert (cfg.q_sink is None) is name.startswith("rates.q_sink")
        assert cfg.detailed_balance is not name.startswith("flags")
        return
    with pytest.raises(ConfigError) as err:
        read_config(str(p))
    assert re.fullmatch(expected, str(err.value)), str(err.value)


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


_BIT_FLOATS = np.random.default_rng(2024).integers(0, 2**63, 20).view(float).tolist()
_JSON_FLOATS = [0.0, -0.0, 5e-324, 1e16, 1e-7, 0.1, -2.5e300, math.nan, math.inf, -math.inf,
                *_BIT_FLOATS]
_JSON_SCALARS = [*_JSON_FLOATS, 0, -1, 7, 2**63, -2**64 - 3, 10**40, True, False, None,
                 "", "plain", "\t\x1f\"\\\x7f", "é\u2028\ud800\U0001f600"]
_NUMPY_SCALARS = [
    np.float64(0.1), np.float64(math.nan), np.float32(0.1), np.float32(-math.inf),
    np.float16(1.5), np.int64(-5), np.uint64(2**64 - 1), np.bool_(True), np.bool_(False),
    complex(0.5, -1.5), complex(math.inf, 0), np.complex64(1 - 0.3j), (1, 2.5),
    np.arange(3.0), np.array(2.5), np.array([[1, 2], [3, 4]], dtype=np.int32),
    np.array([True, False]), np.zeros((2, 0)), np.array([1 + 2j, math.nan]),
    np.array([0.1, math.inf], dtype=np.float32),
]


def _random_json_input(rng, depth: int, native: bool):
    """A random value for the JSON writers: with native, only what json.load
    returns (NaN and Infinity included); else numpy values, complex values,
    tuples and non-str keys too."""
    kind = rng.randrange(4) if depth > 0 else 0
    if kind == 0:
        return rng.choice(_JSON_SCALARS if native or rng.random() < 0.5 else _NUMPY_SCALARS)
    if kind == 1:   # a run of floats, some maybe not finite
        return [rng.choice(_JSON_FLOATS) for _ in range(rng.randrange(1, 6))]
    items = [_random_json_input(rng, depth - 1, native) for _ in range(rng.randrange(5))]
    if kind == 2:
        return items if native or rng.random() < 0.5 else tuple(items)
    keys = ["a", "b", "z", "é", "\n", ""]
    if not native:   # str() of a key can meet a str key: the later value stays
        keys += [3, "3", 2.5, None, "None", True, (1, 2)]
    return {rng.choice(keys): item for item in items}


def test_json_writers_equal_json_dumps(tmp_path):
    # the fast encoder against json.dumps, on random nested structures
    rng = random.Random(2024)
    path = tmp_path / "w.json"
    for _ in range(2000):
        obj = _random_json_input(rng, 4, native=False)
        write_json(str(path), obj)
        assert path.read_text() == json.dumps(jsonable(obj), indent=2, sort_keys=True,
                                              allow_nan=False) + "\n", obj
    for _ in range(1000):   # a config document keeps NaN and Infinity as json reads them
        doc = _random_json_input(rng, 4, native=True)
        hio.write_config_doc(str(path), doc)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert path.read_text() == text, doc
        assert json.dumps(hio.read_config_doc(str(path)), indent=2, sort_keys=True) + "\n" == text
    for bad in ({1, 2}, object(), b"bytes", np.datetime64("2020-01-01"), {"k": [1, {2}]}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json.dumps(jsonable(bad), indent=2, sort_keys=True, allow_nan=False)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            write_json(str(tmp_path / "bad.json"), bad)
    assert not (tmp_path / "bad.json").exists()


def test_json_encoder_memo_keeps_each_documents_text(tmp_path, monkeypatch):
    # documents that share subtrees by identity, at several depths, through one
    # memo and under both spellings of a non-finite float: each document's text
    # is still json.dumps's, so a memo entry serves only its own indent and spelling
    rng = random.Random(7)
    path = tmp_path / "w.json"
    memo, pool = {}, []
    for _ in range(500):
        part = _random_json_input(rng, 3, native=True)
        shared = rng.choice(pool) if pool else []
        doc = {"a": shared, "b": [part, {"c": shared}], "d": part}
        pool.append(part)
        hio.write_config_doc(str(path), doc, memo=memo)
        assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n", doc
        assert hio._json(doc, "\n", hio._NULLS, memo) == json.dumps(
            jsonable(doc), indent=2, sort_keys=True, allow_nan=False), doc
    # each entry holds the object whose id it is keyed by, so no other takes the id
    assert all(key[0] == id(obj) for key, (obj, _) in memo.items())
    # a document met again is not walked again
    walked = []
    container = hio._json_container
    monkeypatch.setattr(hio, "_json_container", lambda obj, *a: walked.append(obj) or
                        container(obj, *a))
    hio.write_config_doc(str(path), doc, memo=memo)
    assert walked == [] and path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


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


def template_text(times, table) -> bytes:
    """The CSV writer's oracle: every value through the "%.17g" template."""
    return "".join("%.17g" % t + "".join(",%.17g" % v for v in row) + "\n"
                   for t, row in zip(np.asarray(times, float).tolist(), table.tolist())).encode()


def write_checked(monkeypatch, path, times, table) -> list:
    """Write table (rows, width) as a trajectory CSV, check its lines against
    the template, and return each block's row count, negative where the
    block took the template."""
    blocks, bulk = [], hio._bulk_lines

    def spy(t, rows, new):
        out = bulk(t, rows, new)
        blocks.append(len(rows) if out is not None else -len(rows))
        return out

    monkeypatch.setattr(hio, "_bulk_lines", spy)
    write_trajectory_csv(str(path), times, table[:, :, None])
    assert path.read_bytes().split(b"\n", 1)[1] == template_text(times, table)
    return blocks


def bulk_table(values, width, rng) -> np.ndarray:
    """values shuffled into rows of width, the last row padded with ones."""
    pad = -len(values) % width
    return rng.permutation(np.concatenate([values, np.ones(pad)])).reshape(-1, width)


def test_bulk_csv_prints_powers_of_ten_and_their_neighbours(tmp_path, monkeypatch):
    # every power of ten from 1e-9 to 1e18 with 40 doubles on each side, and
    # the doubles next to each scaled value 10**16 - 0.5, 10**16, 10**17 - 0.5
    # and 10**17 times 10**-p, where the decade and the 17 digits change
    rng = np.random.default_rng(31)
    powers = np.array([float(f"1e{k}") for k in range(-9, 19)])
    near = [Decimal(d) / 10 ** p for p in range(23)
            for d in ("9999999999999999.5", "1e16", "99999999999999999.5", "1e17")]
    near = np.array([float(d) for d in near] + [1e-6])
    steps = np.arange(-40, 41)
    values = np.concatenate([(powers.view(np.int64)[:, None] + steps).ravel(),
                             (near.view(np.int64)[:, None] + steps[37:44]).ravel()]).view(float)
    table = bulk_table(np.concatenate([values, -values]), 50, rng)
    blocks = write_checked(monkeypatch, tmp_path / "p.csv", np.arange(len(table)) * 0.05, table)
    assert len(blocks) >= 3 and min(blocks) > 0


def test_bulk_csv_prints_random_bit_patterns(tmp_path, monkeypatch):
    # 10**5 random doubles over the whole range (subnormals, nan and inf
    # included), 30 to a row of 100 so that rows mix both routes
    rng = np.random.default_rng(37)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
               -1.7976931348623157e308, 1e17, 99999999999999984.0, 1e-6, 1.0000000000000002e-06]
    bits = np.concatenate([special, rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(float)])
    rows = -(-len(bits) // 30)
    table = rng.normal(size=(rows, 100)) * 10.0 ** rng.integers(-5, 16, (rows, 100))
    table[:, rng.permutation(100)[:30]] = np.resize(bits, (rows, 30))
    blocks = write_checked(monkeypatch, tmp_path / "bits.csv", rng.normal(size=rows), table)
    assert len(blocks) >= 3 and min(blocks) > 0


def test_bulk_csv_rounds_exact_ties_half_to_even(tmp_path, monkeypatch):
    # k * 2**-(p + 1) with k odd lies exactly halfway between two 17-digit
    # decimals when k * 5**p has 17 digits: the 18th digit is a 5 and nothing
    # follows; "%.17g" rounds it to the even digit
    rng = np.random.default_rng(41)
    ties = []
    for p in range(1, 23):
        lo, hi = -(-2 * 10**16 // 5**p), min(2 * 10**17 // 5**p, 2**53)
        if lo < hi:
            ties += [math.ldexp(k, -(p + 1)) for k in (rng.integers(lo, hi, 300) | 1).tolist()]
    for v in ties[::30]:
        x = Fraction(v) * 10 ** (16 - math.floor(math.log10(v)))
        assert x - math.floor(x) == Fraction(1, 2)
    table = bulk_table(np.array(ties) * rng.choice([-1.0, 1.0], len(ties)), 40, rng)
    blocks = write_checked(monkeypatch, tmp_path / "ties.csv", np.arange(len(table)) / 3, table)
    assert len(blocks) >= 3 and min(blocks) > 0


def test_bulk_csv_reuses_rows_across_block_edges(tmp_path, monkeypatch):
    # row counts one short of a block, a block and one more (whose last row
    # alone is too few values for bulk formatting); then runs of equal rows
    # across block edges: bulk to bulk, and of nan; two blocks of values out
    # of range (the template's), the second opening with the first one's
    # first row; the template's last row opening a bulk block; two blocks of
    # one repeated row (the template's), the first closing on another row;
    # and rows equal under == but not bit for bit (0.0 and -0.0), all
    # against the template
    rng = np.random.default_rng(43)
    table = rng.normal(size=(400, 100))
    size = write_checked(monkeypatch, tmp_path / "a.csv", np.arange(400.0), table)[0]
    for rows in (size - 1, size, size + 1):
        blocks = write_checked(monkeypatch, tmp_path / "b.csv", np.arange(rows) * 0.1, table[:rows])
        assert blocks == [min(rows, size)]
    table[size - 3:size + 2] = table[size - 3]
    table[size + 2:3 * size] *= 1e-20
    table[2 * size] = table[size]
    table[3 * size:3 * size + 3] = table[3 * size - 1]
    table[5 * size - 1:5 * size + 1] = np.nan
    table[6 * size + 5:6 * size + 9] = [[0.0], [-0.0], [-0.0], [0.0]]
    table[8 * size:10 * size] = table[8 * size]
    table[9 * size - 1] = table[0]
    blocks = write_checked(monkeypatch, tmp_path / "c.csv", np.arange(400.0), table)
    assert blocks[1] < 0 and blocks[2] < 0 < min(blocks[:1] + blocks[3:]) and len(blocks) >= 7


def test_csv_writer_memory_stays_within_its_block(tmp_path):
    # tracemalloc sees numpy's buffers: 4000 rows cost what 1000 do, once a
    # first table has loaded the bulk formatter and its tables
    rng = np.random.default_rng(47)
    write_trajectory_csv(str(tmp_path / "g.csv"), np.arange(100.0), rng.uniform(size=(100, 10, 10)))
    peaks = []
    for rows in (1000, 4000):
        times, g = np.arange(rows) * 0.05, rng.uniform(-30.0, 30.0, (rows, 10, 10))
        tracemalloc.start()
        try:
            write_trajectory_csv(str(tmp_path / "g.csv"), times, g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 4096
    assert max(peaks) < hio.WRITE_BLOCK_BYTES


def test_aggregate_csv_joins_means_and_stderrs_a_block_at_a_time(tmp_path):
    # the writer formats each block of rows from both arrays: the text is the
    # template's of the joined table, and no joined (K, 2n, m) copy is made
    rng = np.random.default_rng(53)
    times = np.arange(20000) * 0.01
    means, stderrs = rng.uniform(size=(2, 20000, 3, 3))
    path = tmp_path / "aggregate.csv"
    write_aggregate_csv(str(path), times[:100], means[:100], stderrs[:100])   # loads bulkfmt
    tracemalloc.start()
    try:
        write_aggregate_csv(str(path), times, means, stderrs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < hio.WRITE_BLOCK_BYTES < means.nbytes
    head, body = path.read_bytes().split(b"\n", 1)
    assert head.decode().split(",")[1::9] == ["mean_x_1_1", "stderr_x_1_1"]
    assert body == template_text(times, np.hstack([means.reshape(20000, -1),
                                                   stderrs.reshape(20000, -1)]))


@pytest.mark.parametrize("before", [b"left by an earlier, longer write\n" * 40, b"old", None],
                         ids=["longer", "shorter", "absent"])
def test_write_chunks_leaves_exactly_the_chunks(tmp_path, before):
    path = tmp_path / "f.csv"
    if before is not None:
        path.write_bytes(before)
    chunks = [b"t,x_1_1\n", b"0,0.25\n" * 3, b"", b"1,0.5\n"]
    written = {}
    write_chunks(str(path), iter(chunks), written)
    assert path.read_bytes() == b"".join(chunks)
    assert written == {str(path): hashlib.sha256(b"".join(chunks)).hexdigest()}


def test_write_chunks_writes_to_a_device_it_cannot_cut():
    written = {}
    write_chunks(os.devnull, [b"discarded"], written)
    assert written == {os.devnull: hashlib.sha256(b"discarded").hexdigest()}


def test_write_chunks_keeps_the_chunks_before_an_exception(tmp_path):
    path = tmp_path / "f.json"
    path.write_bytes(b"an earlier run's longer file\n" * 100)

    def chunks():
        yield b"first,"
        yield b"second,"
        raise RuntimeError("formatting failed")

    written = {}
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_chunks(str(path), chunks(), written)
    assert path.read_bytes() == b"first,second,"
    assert written == {}


def test_manifest_is_deterministic(tmp_path):
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    (out / "earlier.txt").write_text("left by an earlier run")
    written = {}
    write_json(str(out / "a.json"), {"alpha": 1.5}, written)
    write_state_csv(str(out / "sub" / "b.csv"), np.eye(2), written=written)
    write_manifest(str(out), ["hbmfg", "validate", "cfg.json"], "deadbeef", "0.1.0", written)
    first = (out / "manifest.json").read_bytes()
    write_manifest(str(out), ["hbmfg", "validate", "cfg.json"], "deadbeef", "0.1.0", written)
    assert (out / "manifest.json").read_bytes() == first
    doc = json.loads(first)
    assert doc["command"] == ["hbmfg", "validate", "cfg.json"]
    assert doc["config_sha256"] == "deadbeef"
    # the manifest itself excluded, and so is the file this run did not write
    assert set(doc["files"]) == {"a.json", "sub/b.csv"}
    for rel, digest in doc["files"].items():
        assert digest == hashlib.sha256((out / rel).read_bytes()).hexdigest()
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


def test_manifest_lists_only_the_files_its_run_wrote(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli(["stability", EXAMPLE, "--out", str(out)], capsys)[0] == 0
    assert cli(["solve", EXAMPLE, "--out", str(out), "--T", "1", "--dt", "0.05"], capsys)[0] == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert sorted(files) == ["controls.json", "g.csv", "solve.json", "x.csv"]
    assert (out / "stability.json").exists()
    # a sweep lists each value's config and artifacts under its own directory
    sweep = tmp_path / "s"
    assert cli(["sweep", EXAMPLE, "--out", str(sweep), "--param", "scales.delta",
                "--values", "0.1", "0.05", "--op", "validate"], capsys)[0] == 0
    files = json.loads((sweep / "manifest.json").read_text())["files"]
    assert sorted(files) == ["sweep.json"] + [f"val_{k}/{name}" for k in (0, 1)
                                              for name in ("config.json", "validation.json")]
    for rel, digest in files.items():
        assert digest == hashlib.sha256((sweep / rel).read_bytes()).hexdigest()


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


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    # every `hbmfg ...` line of the README's sh blocks, continuations joined,
    # runs in process from the repository root under warnings as errors, its
    # --out moved under tmp_path
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("hbmfg ")]
    assert [line.split()[1] for line in lines] == [
        "validate", "stationary", "stability", "solve", "simulate", "sweep"]
    monkeypatch.chdir(root)
    for line in lines:
        argv = shlex.split(line)[1:]
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_run(argv) == 0, line
        assert os.path.isfile(os.path.join(argv[at], "manifest.json")), line


def test_cli_solve_end_to_end(tmp_path, capsys):
    rng = np.random.default_rng(5)
    p = write_config(tmp_path / "cone.json", theorem_config(2, 2, rng, delta=0.05))
    out = tmp_path / "o"
    code, summary, _ = cli(["solve", p, "--out", str(out),
                            "--T", "4", "--dt", "0.05"], capsys)
    assert code == 0
    assert summary["converged"] is True
    doc = json.loads((out / "solve.json").read_text())
    assert set(doc) == {"T", "dt", "iterations", "converged", "oscillating", "cone_worst",
                        "switch_fraction", "flipped_steps", "drift_max", "projections",
                        "turnpike"}
    assert set(doc["turnpike"]) == {"sup_middle", "sup_middle_g", "plateau"}
    assert doc["iterations"] == 1
    assert doc["cone_worst"] <= 0.0
    assert doc["turnpike"] is not None
    assert doc["flipped_steps"] == 0
    x_lines = (out / "x.csv").read_text().splitlines()
    g_lines = (out / "g.csv").read_text().splitlines()
    assert len(x_lines) == 82 and len(g_lines) == 82  # header + 81 nodes
    controls = json.loads((out / "controls.json").read_text())
    assert controls["steps"] == 80
    assert controls["change_points"] == [{"t": 0.0, "active": []}]

    # cone_worst is the largest switch gain on the written payoff path, in bits
    out = tmp_path / "ex"
    cli(["solve", EXAMPLE, "--out", str(out), "--T", "10", "--dt", "0.05"], capsys)
    doc = json.loads((out / "solve.json").read_text())
    g = np.loadtxt(out / "g.csv", delimiter=",", skiprows=1)[:, 1:].reshape(-1, 3, 3)
    worst = hbmfg.switch_gains(g, read_config(EXAMPLE)).max()
    assert np.float64(doc["cone_worst"]).view(np.int64) == worst.view(np.int64)
    assert worst > 0.0
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
    u_path = Control.of_steps([stay, stay, mixed, mixed, [[0, 0, 2], [0, 1, 2]]])

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
    # the forward pass overflows and raises, and no warning of numpy's escapes
    out = tmp_path / "o"
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


def test_cli_solve_refuses_a_payoff_past_its_a_priori_bound(tmp_path, capsys, monkeypatch):
    # the bound is max |gT| + model.payoff_bound, (max |w| + F) / delta_dis, F
    # the largest fine flow with every partner cell at mass 1: on the example
    # the fine of 0.2 on the down moves out of cell (3, 3), at 1.8 plus
    # delta_int times its stimulated rates 0.4 + 0.5 + 0.6
    cfg = read_config(EXAMPLE)
    gT = np.zeros((3, 3))
    gT[1, 2] = -3.0
    assert np.abs(gT).max() + hbmfg.model.payoff_bound(cfg) == pytest.approx(
        3.0 + (2.2 + 0.2 * (1.8 + 0.05 ** 2 * 1.5)) / 0.05, rel=1e-14)
    # perfbench's seed-1 stay-put config at --dt 0.4: the payoff pass blows up
    # to max |g| about 2e68 and stays finite, against a bound of 23.8; the solve
    # is a numerical failure that writes error.json and the manifest alone
    config = stayput_config(tmp_path, monkeypatch)
    cfg = read_config(config)
    bound = hbmfg.model.payoff_bound(cfg)
    assert bound == pytest.approx(23.825072722080876, rel=1e-14)
    out = tmp_path / "dt0.4"
    code, summary, err = cli(["solve", config, "--T", "87.5", "--dt", "0.4",
                              "--out", str(out)], capsys)
    assert code == 2 and summary["ok"] is False and "numerical failure" in err
    assert "a-priori bound 23.8251" in summary["error"] and "--dt 0.4" in summary["error"]
    assert sorted(os.listdir(out)) == ["error.json", "manifest.json"]
    # at --dt 0.2 the same solve stays within the bound
    out = tmp_path / "dt0.2"
    code, _, _ = cli(["solve", config, "--T", "87.5", "--dt", "0.2", "--out", str(out)], capsys)
    g = np.loadtxt(out / "g.csv", delimiter=",", skiprows=1)[:, 1:]
    assert code == 0 and 17 < np.abs(g).max() < bound


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
        calls.append(list(seed))
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


def test_cli_simulate_single_replication_is_the_reference_path(tmp_path, capsys, monkeypatch):
    from test_simulator import reference_run   # test_simulator imports this module

    calls = []
    batched = hbmfg.cli.simulate

    def spy(s0, u, T, seed, cfg, **kw):
        paths = batched(s0, u, T, seed, cfg, **kw)
        calls.append((list(seed), [sorted(p.meta) for p in paths]))
        return paths

    monkeypatch.setattr(hbmfg.cli, "simulate", spy)
    out = tmp_path / "o"
    code, summary, _ = cli(["simulate", EXAMPLE, "--out", str(out), "--N", "120", "--T", "1",
                            "--seed", "5", "--samples", "5"], capsys)
    # one seed in a list runs the lockstep loop with one column, which counts its steps
    assert code == 0 and calls == [([5], [["lockstep_steps", "rng"]])]
    cfg = read_config(EXAMPLE)
    s0 = hbmfg.CountState.from_occupation(hbmfg.Occupation.uniform(3, 3).x, 120)
    counts, events, _ = reference_run(s0, None, 1.0, 5, cfg, 5)
    x = counts / 120.0
    write_aggregate_csv(str(tmp_path / "ref.csv"), np.linspace(0.0, 1.0, 6), x, np.zeros_like(x))
    assert (out / "aggregate.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    doc = json.loads((out / "simulate.json").read_text())
    assert doc["events_per_rep"] == [events] == [summary["events"]]


@pytest.mark.parametrize("reps", [3, 16])
def test_cli_simulate_aggregate_is_the_numpy_reduction(tmp_path, capsys, reps):
    # several replications run the lockstep loop; aggregate.csv holds numpy's
    # mean and ddof-1 standard error of the stacked paths, byte for byte
    out = tmp_path / "o"
    code, _, _ = cli(["simulate", EXAMPLE, "--out", str(out), "--N", "200", "--T", "1",
                      "--reps", str(reps), "--seed", "7", "--samples", "8"], capsys)
    assert code == 0
    s0 = hbmfg.CountState.from_occupation(hbmfg.Occupation.uniform(3, 3).x, 200)
    paths = hbmfg.simulate(s0, None, 1.0, range(7, 7 + reps), read_config(EXAMPLE), samples=8)
    xs = np.stack([p.x for p in paths])
    write_aggregate_csv(str(tmp_path / "ref.csv"), paths[0].times, xs.mean(axis=0),
                        xs.std(axis=0, ddof=1) / np.sqrt(reps))
    assert (out / "aggregate.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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


# each edit puts a boolean, a string or a list where read_config reads a number
_NOT_NUMBERS = {
    "dimensions.n": lambda doc: doc["dimensions"].update(n=True),
    "scales.lambda": lambda doc: doc["scales"].update({"lambda": "2.5"}),
    "scales.delta": lambda doc: doc["scales"].update(delta=[0.1, 0.2]),
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


def test_cli_sweep_refuses_a_root_that_is_not_an_object(tmp_path, capsys):
    # the path "1" addresses the list's second entry, so every value sets a
    # field; the sweep must refuse the root before any run writes a file
    p = tmp_path / "listed.json"
    p.write_text(json.dumps([example_doc(), 1]))
    for op in ("validate", "stationary"):
        out = tmp_path / op
        code, summary, _ = cli(["sweep", str(p), "--param", "1", "--values", "2", "--op", op,
                                "--out", str(out)], capsys)
        assert code == 1 and summary["error"] == "config root must be a JSON object"
        assert os.listdir(out) == []


def test_cli_sweep_refuses_non_finite_values(tmp_path, capsys):
    huge = "1" + "0" * 400   # an integer beyond float64's range
    longer = "1" + "0" * 5000   # and one beyond Python's 4300-digit int() limit
    for values in (["NaN", "0.05"], ["0.05", "Infinity"], ["[-Infinity]"], ["1e400"],
                   ["[0.5, NaN, 0.5]"], ["0.05", huge], [f"[0.5, -{huge}]"],
                   ["0.05", longer], [f"[0.5, -{longer}]"]):
        out = tmp_path / f"o{len(os.listdir(tmp_path))}"
        code, summary, _ = cli(["sweep", EXAMPLE, "--out", str(out), "--param",
                                "scales.delta", "--values", *values], capsys)
        assert code == 1 and "non-finite" in summary["error"], values
        assert os.listdir(out) == []


@pytest.mark.parametrize("field", ["scales.lambda", "economics.fee_H"])
def test_cli_refuses_integers_beyond_float64(tmp_path, capsys, field):
    # JSON allows the integer, but float() and numpy cannot convert it, and int()
    # refuses a string of more than 4300 digits
    doc = example_doc()
    section, key = field.split(".")
    doc[section][key] = "HUGE" if key == "lambda" else [0.2, "-HUGE", 0.2]
    for digits in (401, 5001):
        huge = "1" + "0" * (digits - 1)
        p = tmp_path / f"huge{digits}.json"
        p.write_text(json.dumps(doc).replace('"HUGE"', huge).replace('"-HUGE"', "-" + huge))
        out = tmp_path / f"v{digits}"
        code, _, _ = cli(["validate", str(p), "--out", str(out)], capsys)
        violations = json.loads((out / "validation.json").read_text())["violations"]
        assert code == 1 and violations == [
            f"config rejected: field '{field}' holds an integer beyond float64's range"]


def test_cli_sweep_sets_and_refuses_list_indices(tmp_path, capsys):
    out = tmp_path / "ok"
    code, _, _ = cli(["sweep", EXAMPLE, "--param", "economics.fee_H.1", "--values", "0.3",
                      "0.4", "--op", "validate", "--out", str(out)], capsys)
    assert code == 0
    for k, value in enumerate((0.3, 0.4)):  # each value's document is its own
        doc = json.loads((out / f"val_{k}" / "config.json").read_text())
        assert doc["economics"]["fee_H"] == [0.2, value, 0.2]
    # a negative index would count from the end: -3 is row 0, which 0.9 breaks
    for param, why in (("economics.fee_H.9", "bad index '9'"),
                       ("rates.q_up.-3.0", "bad index '-3'"),
                       ("rates.q_up.-1.0", "bad index '-1'"),
                       ("rates.q_up.0.x", "bad index 'x'"),
                       ("scales.delta.x", "does not address a field")):
        out = tmp_path / param
        code, summary, _ = cli(["sweep", EXAMPLE, "--param", param, "--values", "0.9",
                                "--op", "validate", "--out", str(out)], capsys)
        assert code == 1 and why in summary["error"], param
        assert os.listdir(out) == []


def _set_path(doc, path: str, value):
    """A deep copy of doc with value at the dotted path, each list index an int."""
    doc = copy.deepcopy(doc)
    *head, last = path.split(".")
    cur = doc
    for token in head:
        cur = cur[int(token)] if isinstance(cur, list) else cur[token]
    cur[int(last) if isinstance(cur, list) else last] = value
    return doc


SWEEP_PATHS = [
    ("scales.delta", ["0.1", "0.05", "-1e-3"]),
    ("economics.fee_H.1", ["0.3", "0.1"]),
    ("rates.q_up_evo.0.1.2", ["0.25", "0.5", "0.25"]),
    ("economics.fee_H", ["[0.1,0.2,0.3]", "[0.3,0.2,0.1]"]),
]


@pytest.mark.parametrize("non_finite", [False, True])
@pytest.mark.parametrize("param, values", SWEEP_PATHS)
def test_cli_sweep_writes_each_values_config_as_json_dumps(tmp_path, capsys, param, values,
                                                          non_finite):
    # the values share, by identity, every subtree off the path with the base
    # document, and the sweep encodes each shared one once; every value's
    # config.json must still be json.dumps of its own document, byte for byte.
    # With non_finite the base holds NaN and Infinity, which a config keeps
    base = example_doc()
    if non_finite:
        base["economics"]["w"][0] = [math.nan, math.inf, -math.inf]
    config = tmp_path / "base.json"
    config.write_text(json.dumps(base))
    out = tmp_path / "o"
    _, summary, _ = cli(["sweep", str(config), "--param", param, "--values", *values,
                            "--op", "validate", "--out", str(out)], capsys)
    assert summary["runs"] == len(values)
    for k, value in enumerate(values):
        doc = _set_path(base, param, json.loads(value))
        want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert (out / f"val_{k}" / "config.json").read_text() == want, (param, k)


def test_cli_sweeps_in_one_process_each_write_their_own_documents(tmp_path, capsys):
    # no memo outlives its sweep: a sweep over another config between two runs
    # of the same sweep writes and reads its own documents, and so does the rerun
    other = example_doc()
    other["economics"]["w"][1] = [1.0, 0.5, 0.25]
    other["rates"]["q_up_evo"][0][1] = [0.1, 0.2, 0.3]
    config = tmp_path / "other.json"
    config.write_text(json.dumps(other))
    for k, (path, base) in enumerate([(EXAMPLE, example_doc()), (str(config), other),
                                      (EXAMPLE, example_doc())]):
        out = tmp_path / f"sweep_{k}"
        code, _, _ = cli(["sweep", path, "--param", "scales.delta", "--values", "0.1", "0.05",
                          "--op", "stationary", "--out", str(out)], capsys)
        assert code == 0
        for j, value in enumerate((0.1, 0.05)):
            sub = out / f"val_{j}"
            doc = _set_path(base, "scales.delta", value)
            assert (sub / "config.json").read_text() == json.dumps(
                doc, indent=2, sort_keys=True) + "\n", (k, j)
            direct = tmp_path / f"direct_{k}_{j}"
            assert cli(["stationary", str(sub / "config.json"), "--out", str(direct)],
                       capsys)[0] == 0
            assert (direct / "stationary.json").read_bytes() == (
                sub / "stationary.json").read_bytes(), (k, j)
    assert (tmp_path / "sweep_0" / "val_0" / "stationary.json").read_bytes() != (
        tmp_path / "sweep_1" / "val_0" / "stationary.json").read_bytes()


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


def test_cli_refuses_a_payoff_bound_that_overflows(tmp_path, capsys):
    # regime id3 at delta 1e-160 gives delta_dis = 1e-320, subnormal but
    # positive, and the example's rewards times 6e306 are finite: either takes
    # (max |w| + F) / delta_dis past the largest float.  stationary wrote a
    # null payoff and solve warned in its bound; now every subcommand refuses
    # the config by validate's message, with warnings as errors, and leaves
    # its --out empty
    rich = example_doc()
    rich["economics"]["w"] = [[6e306 * v for v in row] for row in rich["economics"]["w"]]
    p = tmp_path / "rich.json"
    p.write_text(json.dumps(rich))
    why = "payoff bound: (max |w| + F) / delta_dis = inf at delta_dis={} is not finite"
    runs = [(["stationary", EXAMPLE, "--regime", "id3", "--delta", "1e-160"], "1e-320"),
            (["solve", str(p)], "0.05"), (["stationary", str(p)], "0.05")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, (args, delta_dis) in enumerate(runs):
            out = tmp_path / str(k)
            code, summary, err = cli(args + ["--out", str(out)], capsys)
            assert code == 1 and "numerical failure" not in err, args
            assert summary["error"] == "config fails validation: " + why.format(delta_dis)
            assert os.listdir(out) == []
        out = tmp_path / "validate"
        assert cli(["validate", str(p), "--out", str(out)], capsys)[0] == 1
        assert json.loads((out / "validation.json").read_text()) == {
            "ok": False, "violations": [why.format("0.05")]}
        # a sweep down delta at id3 gives each value its own verdict
        slow = example_doc()
        slow["scales"]["regime"] = "id3"
        p = tmp_path / "id3.json"
        p.write_text(json.dumps(slow))
        out = tmp_path / "sweep"
        code, summary, _ = cli(["sweep", str(p), "--param", "scales.delta", "--values",
                                "1e-150", "1e-160", "--op", "validate", "--out", str(out)],
                               capsys)
        assert code == 1 and (summary["runs"], summary["failed"]) == (2, 1)
        verdicts = [json.loads((out / f"val_{k}" / "validation.json").read_text())["violations"]
                    for k in range(2)]
        assert verdicts == [[], [why.format("1e-320")]]


def test_cli_solve_refuses_a_grid_past_the_step_bound(tmp_path, capsys):
    # T / dt overflows float64: the count is refused by the bound, not by an OverflowError
    out = tmp_path / "o"
    code, summary, _ = cli(["solve", EXAMPLE, "--T", "1e308", "--dt", "1e-300",
                            "--out", str(out)], capsys)
    assert code == 1 and summary["error"] == (
        f"a grid of inf steps exceeds the bound of {MAX_STEPS} steps")
    assert os.listdir(out) == []


def test_cli_refuses_node_arrays_past_the_budget_before_allocating(tmp_path, capsys):
    # 1e8 steps are within MAX_STEPS, but the (1e8 + 1, 3, 3) node path would
    # take 7.2 GB.  A simulation holds, per replication, its counts, node
    # times and sample times ((samples + 1) x 12 values), two uniform buffers
    # of 1024 and 6 values for each of the example's 48 channels: 1e6
    # replications of one sample would take 18.9 GB.  Each is refused by name, before any seed is
    # listed, with numpy's traced peak far below it; so is a count of
    # replications too large for len().  A simulation's budget is NODE_BYTES
    # less the most a speculative lockstep step holds.
    def sim(reps, samples):
        values = (samples + 1) * 12 + 2 * 1024 + 6 * 48
        return (["--N", "10", "--T", "1", "--reps", str(reps), "--samples", str(samples)],
                f"a simulation of {reps} x {values} values takes {8 * reps * values} bytes",
                NODE_BYTES - _SPEC_BYTES)

    node_path = f"a node array of 100000001 x 9 values takes {72 * 100000001} bytes"
    runs = [("solve", ["--T", "1e308", "--dt", "1e300"], node_path, NODE_BYTES),
            ("simulate", *sim(3, 4971026)),
            ("simulate", *sim(10**6, 1)),
            ("simulate", *sim(10**6, 1000)),
            ("simulate", *sim(10**30, 1))]
    for k, (cmd, args, refusal, budget) in enumerate(runs):
        out = tmp_path / str(k)
        tracemalloc.start()
        try:
            code, summary, _ = cli([cmd, EXAMPLE, *args, "--out", str(out)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and summary["error"] == (
            f"{refusal}, past the budget of {budget} bytes")
        assert os.listdir(out) == [] and peak < 1 << 24


def test_cli_simulate_refuses_a_run_past_the_event_bound(tmp_path, capsys):
    # validate accepts the example at delta 5e10, whose stimulated rates near
    # 1e21 would run for hours; solve refuses it by its step bound, and
    # simulate by its estimate of the events, total rate x T x replications.
    # A stimulated rate of 1e307 among 1e9 agents overflows the estimate to inf.
    fast, huge = example_doc(), example_doc()
    fast["scales"]["delta"] = 5e10
    huge["rates"]["q_up_evo"][0][0][1] = 1e307
    for k, (doc, N, reps, estimate) in enumerate(((fast, "20", "1", r"4\.1375e\+21"),
                                                  (fast, "20", "4", r"1\.655e\+22"),
                                                  (huge, "1000000000", "1", "inf"))):
        p, out = str(tmp_path / f"c{k}.json"), tmp_path / f"o{k}"
        with open(p, "w") as fh:
            json.dump(doc, fh)
        code, summary, err = cli(["simulate", p, "--N", N, "--T", "0.5", "--reps", reps,
                                  "--out", str(out)], capsys)
        assert code == 1 and "numerical failure" not in err
        assert re.fullmatch(rf"a simulation of an estimated {estimate} events exceeds the bound "
                            rf"of {MAX_STEPS} events", summary["error"])
        assert os.listdir(out) == []


def test_cli_refuses_stimulated_rates_that_overflow_once_scaled(tmp_path, capsys):
    # 1e308 is a finite interaction rate, but delta_int = 10 (regime id2)
    # scales it past the largest float.  validate accepted it, and the other
    # subcommands then failed after an overflow warning, each in its own way;
    # now every one refuses the config by that entry, with warnings as errors.
    # The verdict depends on the scales, so a sweep down delta, whose values
    # share their arrays and validate's memo, gives each value its own.
    doc = example_doc()
    doc["rates"]["q_up_evo"][0][0][1] = 1e308
    doc["scales"].update(regime="id2", delta=10.0)
    p = tmp_path / "overflow.json"
    p.write_text(json.dumps(doc))
    why = "q_up_evo[1,1,2]: 1e+308 times delta_int=10.0 is not finite"
    runs = [["solve"], ["simulate", "--N", "100", "--T", "1"],
            ["simulate", "--N", "100", "--T", "1", "--reps", "4"], ["stationary"],
            ["stability"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = tmp_path / "validate"
        code, summary, _ = cli(["validate", str(p), "--out", str(out)], capsys)
        assert code == 1 and summary["violations"] == 1
        assert json.loads((out / "validation.json").read_text()) == {"ok": False,
                                                                     "violations": [why]}
        for k, (cmd, *args) in enumerate(runs):
            out = tmp_path / str(k)
            code, summary, err = cli([cmd, str(p), *args, "--out", str(out)], capsys)
            assert code == 1 and summary["error"] == "config fails validation: " + why, cmd
            assert "numerical failure" not in err and os.listdir(out) == []
        out = tmp_path / "sweep"
        code, summary, _ = cli(["sweep", str(p), "--param", "scales.delta", "--values",
                                "0.05", "10", "0.05", "--op", "validate", "--out", str(out)],
                               capsys)
        assert code == 1 and (summary["runs"], summary["failed"]) == (3, 1)
        verdicts = [json.loads((out / f"val_{k}" / "validation.json").read_text())["violations"]
                    for k in range(3)]
        assert verdicts == [[], [why], []]
    # the sink's interaction tensor is scaled and named as well
    sink = make_config(3, 2, np.random.default_rng(5), sink=True, delta=10.0, regime="id2")
    interaction = sink.q_sink.interaction.copy()
    interaction[2, 1, 0] = 1e308
    bad = dataclasses.replace(sink, q_sink=SinkRates(sink.q_sink.direct, interaction))
    assert hbmfg.validate(bad) == [
        "q_sink.interaction[3,2,1]: 1e+308 times delta_int=10.0 is not finite"]
    assert hbmfg.validate(dataclasses.replace(bad, delta=1.0)) == []


def test_cli_simulate_refuses_samples_past_the_step_bound(tmp_path, capsys):
    # refused before the output grid is allocated
    out = tmp_path / "o"
    code, summary, _ = cli(["simulate", EXAMPLE, "--N", "10", "--T", "1", "--samples",
                            str(MAX_STEPS + 1), "--out", str(out)], capsys)
    assert code == 1 and summary["error"] == (
        f"need 1 to {MAX_STEPS} output samples, got {MAX_STEPS + 1}")
    assert os.listdir(out) == []


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


def _artifacts(out) -> dict:
    """Each file under out by relative path, its bytes with out's own path as OUT;
    none when out was never made."""
    files = sorted(out.rglob("*")) if out.exists() else []
    return {str(p.relative_to(out)): p.read_bytes().replace(str(out).encode(), b"OUT")
            for p in files if p.is_file()}


def test_cli_rerun_into_a_filled_out_rewrites_the_first_runs_bytes(tmp_path, capsys):
    # each command runs into its own --out, then a smaller variant of it, then
    # itself again; every manifest hash matches its file, so no rewritten file
    # keeps a tail of a longer one, and the last run's files equal the first's
    values = ["0.3", "0.2", "0.15", "0.1", "0.07", "0.05", "0.03", "0.02"]
    sweep = ["sweep", EXAMPLE, "--param", "scales.delta", "--values"]
    sim = ["simulate", EXAMPLE, "--N", "60", "--T", "1", "--seed", "2", "--per-rep", "--reps"]
    solve = ["solve", EXAMPLE, "--T"]
    for name, first, smaller in (("sweep", sweep + values, sweep + values[:2]),
                                 ("solve", solve + ["4"], solve + ["2"]),
                                 ("simulate", sim + ["3"], sim + ["2"])):
        out = tmp_path / name
        snapshots = []
        for argv in (first, smaller, first):
            assert cli(argv + ["--out", str(out)], capsys)[0] == 0, argv
            files = json.loads((out / "manifest.json").read_text())["files"]
            for rel, digest in files.items():
                assert digest == hashlib.sha256((out / rel).read_bytes()).hexdigest(), rel
            snapshots.append(_artifacts(out))
        assert snapshots[2] == snapshots[0], name
        assert len(snapshots[1]) == len(snapshots[0]) and snapshots[1] != snapshots[0]


def test_cli_parser_keeps_no_state_between_runs(tmp_path, capsys):
    # one process parses every run with one parser; each run must still act as if first
    sim = ["simulate", EXAMPLE, "--N", "40", "--T", "1", "--seed", "4"]
    runs = [sim + ["--per-rep", "--reps", "2"], sim,
            ["stationary", EXAMPLE, "--regime", "id3", "--delta", "0.01"],
            ["stationary", EXAMPLE, "--regime", "id3", "--delta", "oops"],
            ["stationary", EXAMPLE]]
    hbmfg.cli._parser.cache_clear()
    after = [cli(argv + ["--out", str(tmp_path / f"seq_{k}")], capsys)[:2]
             for k, argv in enumerate(runs)]
    for k, argv in enumerate(runs):
        hbmfg.cli._parser.cache_clear()
        first = cli(argv + ["--out", str(tmp_path / f"first_{k}")], capsys)[:2]
        assert after[k][0] == first[0], argv
        assert _artifacts(tmp_path / f"seq_{k}") == _artifacts(tmp_path / f"first_{k}"), argv
    assert after[3][0] == 1 and not (tmp_path / "seq_3").exists()
    assert len(_artifacts(tmp_path / "seq_0")) == 5 and len(_artifacts(tmp_path / "seq_1")) == 3


# sweeps whose runs must equal direct runs: each (param, values, per-value status)
EQUAL_RUN_SWEEPS = [
    ("scales.delta", ["0.1", "-1e-3"], [0, 1]),
    ("rates.q_up_evo.0.1.2", ["0.25", "0.5"], [0, 0]),
    ("rates.q_up.0.1", ['"x"', "1.0"], [1, 0]),   # "x" makes the field non-numeric
    # the validation memo must give each value its own arrays' verdict: a
    # verdict met again, one undone, and each key part changed on its own
    ("rates.q_up.0.1", ["-0.5", "1.0", "-0.5"], [1, 0, 1]),
    ("economics.fee_B.0.0", ["0.5", "0.0"], [1, 0]),
    ("rates.q_down.1.0", ["0.9", "0.8"], [1, 0]),   # breaks detailed balance, then restores it
    ("flags.detailed_balance", ["false", "true"], [0, 0]),
    ("dimensions.n", ["2", "3"], [1, 0]),
]


@pytest.mark.parametrize("op", ["stationary", "stability", "validate"])
def test_cli_sweep_runs_equal_runs_on_their_config_files(tmp_path, capsys, op):
    # each sweep run takes its document in memory, reading what it shares with
    # the other values once; run on the file written, it must agree
    for case, (param, values, statuses) in enumerate(EQUAL_RUN_SWEEPS):
        out = tmp_path / f"sweep_{case}"
        code, _, _ = cli(["sweep", EXAMPLE, "--param", param, "--values", *values,
                          "--op", op, "--out", str(out)], capsys)
        results = json.loads((out / "sweep.json").read_text())["results"]
        assert code == max(statuses) and [r["status"] for r in results] == statuses, param
        for k, result in enumerate(results):
            sub = out / f"val_{k}"
            direct = tmp_path / f"direct_{case}_{k}"
            code, summary, _ = cli([op, str(sub / "config.json"), "--out", str(direct)],
                                   capsys)
            assert result["status"] == code
            got = _artifacts(direct)
            got.pop("manifest.json", None)
            want = _artifacts(sub)
            want.pop("config.json")
            assert got == want, (param, k)
            if "error" in result["summary"]:
                assert result["summary"]["error"] == summary["error"]
            else:
                assert {**result["summary"], "out": str(direct)} == summary


def _same_config(a: GameConfig, b: GameConfig) -> None:
    """a equals b field by field, every array in dtype, shape and bits."""
    for f in dataclasses.fields(GameConfig):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
        else:
            assert type(x) is type(y) and repr(x) == repr(y), f.name


def test_cli_sweep_reads_each_value_as_a_fresh_read_of_its_config(tmp_path, capsys,
                                                                  monkeypatch):
    # every GameConfig a sweep builds equals read_config of that value's
    # config.json, bit for bit; the values whose q_up_evo element changed each
    # get their own q_up_evo, while every array they share is read once
    built, reads = [], []
    read, numeric = hbmfg.cli.read_config, hio._numeric
    monkeypatch.setattr(hbmfg.cli, "read_config",
                        lambda config, memo=None: built.append(read(config, memo)) or built[-1])
    monkeypatch.setattr(hio, "_numeric",
                        lambda name, *a: reads.append(name) or numeric(name, *a))
    values = ["0.25", "0.5", "0.25", "0.125"]
    out = tmp_path / "o"
    code, _, _ = cli(["sweep", EXAMPLE, "--param", "rates.q_up_evo.0.1.2", "--values", *values,
                      "--op", "stationary", "--out", str(out)], capsys)
    assert code == 0 and len(built) == len(values)
    assert reads.count("rates.q_up_evo") == len(values)
    assert reads.count("rates.q_down_evo") == reads.count("economics.w") == 1
    fresh = [read_config(str(out / f"val_{k}" / "config.json")) for k in range(len(values))]
    for cfg, want, value in zip(built, fresh, values):
        _same_config(cfg, want)
        assert cfg.q_up_evo[0, 1, 2] == float(value)


def test_cli_sweep_checks_each_document_once_and_its_shared_arrays_once(tmp_path, capsys,
                                                                       monkeypatch):
    # check_fields walks each value's document once, and validate checks the
    # arrays of each distinct value once per sweep, for every op
    class Fields(dict):
        walks = 0

        def __contains__(self, name):
            Fields.walks += name == "dimensions"   # a walk meets the root's first key once
            return super().__contains__(name)

    checks = []
    arrays = hbmfg.model._array_violations
    monkeypatch.setattr(hio, "_FIELDS", Fields(hio._FIELDS))
    monkeypatch.setattr(hbmfg.model, "_array_violations",
                        lambda cfg: checks.append(cfg) or arrays(cfg))
    for op in ("validate", "stationary", "stability"):
        for param, values, distinct in (("scales.delta", ["0.1", "0.05", "0.1", "0.2"], 1),
                                        ("rates.q_up.0.1", ["-0.5", "1.0", "-0.5"], 2)):
            Fields.walks, checks[:] = 0, []
            cli(["sweep", EXAMPLE, "--param", param, "--values", *values, "--op", op,
                 "--out", str(tmp_path / f"{op}_{param}")], capsys)
            assert (Fields.walks, len(checks)) == (len(values), distinct), (op, param)


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
