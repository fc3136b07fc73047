"""Config files, CSV/JSON artifacts, and the output manifest.

Configs are JSON with four required sections (dimensions, rates, economics,
scales) and an optional flags section; parse errors name the offending field
or the JSON line, and a field that read_config does not read is refused.
Trajectory CSVs carry a time column followed by the states flattened
row-major with 1-based labels (x_1_1 ... x_n_m); floats are written
with 17 significant digits so values round-trip exactly.  Every output
directory gets a manifest.json listing relative paths and content hashes;
no timestamps, so identical runs produce identical bytes.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .model import GameConfig, SinkRates

__all__ = [
    "ConfigError",
    "check_fields",
    "read_config_doc",
    "read_config",
    "config_sha256",
    "fmt",
    "jsonable",
    "write_json",
    "write_trajectory_csv",
    "write_state_csv",
    "read_state_csv",
    "write_aggregate_csv",
    "write_manifest",
]


class ConfigError(ValueError):
    pass


# The fields read_config reads, by the path of their section; it refuses any other.
_FIELDS = {
    (): ("dimensions", "rates", "economics", "scales", "flags"),
    ("dimensions",): ("n", "m"),
    ("rates",): ("q_up", "q_down", "q_up_evo", "q_down_evo", "q_sink"),
    ("rates", "q_sink"): ("direct", "interaction"),
    ("economics",): ("w", "fee_B", "fee_H"),
    ("scales",): ("lambda", "delta", "regime"),
    ("flags",): ("detailed_balance",),
}


def check_fields(doc) -> None:
    """Refuse, by its dotted name, a field of a config document that read_config does not read."""
    for path, known in _FIELDS.items():
        sec = doc
        for key in path:
            sec = sec.get(key) if isinstance(sec, dict) else None
        for key in sec if isinstance(sec, dict) else ():  # other sections are read_config's
            if key not in known:
                raise ConfigError(f"config has unknown field '{'.'.join(path + (key,))}'")


def _get(section: dict, path: str, key: str):
    if key not in section:
        raise ConfigError(f"config is missing field '{path}.{key}'")
    return section[key]


def _section(doc: dict, name: str, required: bool = True) -> dict:
    sec = doc.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"config is missing the '{name}' section")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    return sec


def _numeric(section: dict, path: str, key: str):
    """The field's value once each JSON leaf is exactly an int or a float: numpy
    reads true as 1 and "2.5" as 2.5, so a bool, string or null is refused by name,
    and so is an int beyond float64's range, which float() cannot hold."""
    value = _get(section, path, key)
    leaves = [value]
    for leaf in leaves:  # the list grows by the entries of each list met
        if type(leaf) is list:
            leaves.extend(leaf)
        elif type(leaf) not in (int, float):
            raise ConfigError(f"config rejected: field '{path}.{key}' is not numeric: "
                              f"{json.dumps(leaf)} must be a number")
        elif type(leaf) is int and abs(leaf) > sys.float_info.max:
            raise ConfigError(f"config rejected: field '{path}.{key}' holds an integer "
                              "beyond float64's range")
    return value


def _array(section: dict, path: str, key: str) -> np.ndarray:
    value = _numeric(section, path, key)
    try:
        return np.asarray(value, dtype=float)
    except ValueError as e:  # a ragged list
        raise ConfigError(f"config field '{path}.{key}' is not numeric: {e}") from None


def read_config_doc(path: str):
    """The parsed JSON of a config file; unreadable files and bad JSON are ConfigErrors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config is not valid JSON (line {e.lineno}, column {e.colno}): {e.msg}"
        ) from None


def read_config(path: str) -> GameConfig:
    """Parse a config file into a GameConfig; shape checks happen there too."""
    doc = read_config_doc(path)
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    check_fields(doc)

    dims = _section(doc, "dimensions")
    rates = _section(doc, "rates")
    econ = _section(doc, "economics")
    scales = _section(doc, "scales")
    flags = _section(doc, "flags", required=False)

    n, m = _numeric(dims, "dimensions", "n"), _numeric(dims, "dimensions", "m")
    if not isinstance(n, int) or not isinstance(m, int) or n < 1 or m < 1:
        raise ConfigError("config fields 'dimensions.n' and 'dimensions.m' "
                          "must be positive integers")

    q_sink: Optional[SinkRates] = None
    if "q_sink" in rates:
        sink = rates["q_sink"]
        if not isinstance(sink, dict):
            raise ConfigError("config field 'rates.q_sink' must be an object")
        q_sink = SinkRates(direct=_array(sink, "rates.q_sink", "direct"),
                           interaction=_array(sink, "rates.q_sink", "interaction"))

    regime = _get(scales, "scales", "regime")
    detailed_balance = flags.get("detailed_balance", False)
    if not isinstance(detailed_balance, bool):
        raise ConfigError("config field 'flags.detailed_balance' must be true or false")
    arrays = {key: _array(sec, name, key) for name, sec, keys in (
        ("rates", rates, ("q_up", "q_down", "q_up_evo", "q_down_evo")),
        ("economics", econ, ("w", "fee_B", "fee_H"))) for key in keys}
    lam, delta = (float(_numeric(scales, "scales", key)) for key in ("lambda", "delta"))
    try:
        return GameConfig(n=n, m=m, **arrays, lam=lam, delta=delta, regime=regime,
                          detailed_balance=detailed_balance, q_sink=q_sink)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"config rejected: {e}") from None


def config_sha256(path: str) -> str:
    return _sha256_file(path)


def fmt(x: float) -> str:
    """17 significant digits: enough for float64 values to round-trip."""
    return format(float(x), ".17g")


def jsonable(obj):
    """Recursively convert arrays and numpy scalars for json.dumps.

    Complex values become [real, imag] pairs; array shape is preserved.
    Non-finite floats become None (JSON null), which strict JSON allows.
    """
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [jsonable(obj.real), jsonable(obj.imag)]
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _state_labels(prefix: str, n: int, m: int) -> list:
    return [f"{prefix}_{i + 1}_{j + 1}" for i in range(n) for j in range(m)]


def _write_rows(path: str, head: list, times, table: np.ndarray) -> None:
    # row by row, one "%.17g" template formatting each value as fmt does; a row
    # whose bits equal the previous row's reuses its text, only t is formatted
    template = "".join([",%.17g"] * (len(head) - 1)) + "\n"
    bits = text = None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(head) + "\n")
        for t, row in zip(np.asarray(times, dtype=float).tolist(), table):
            if (row_bits := row.tobytes()) != bits:
                bits, text = row_bits, template % tuple(row.tolist())
            fh.write("%.17g" % t + text)


def write_trajectory_csv(path: str, times, values, prefix: str = "x") -> None:
    """times (T,) and values (T, n, m) to CSV: t, then states row-major."""
    values = np.asarray(values, dtype=float)
    n, m = values.shape[1], values.shape[2]
    _write_rows(path, ["t"] + _state_labels(prefix, n, m), times, values.reshape(len(values), -1))


def write_state_csv(path: str, state, prefix: str = "x", t: float = 0.0) -> None:
    """Single state matrix as a one-row trajectory CSV."""
    a = np.asarray(state, dtype=float)
    write_trajectory_csv(path, [t], a[None, :, :], prefix=prefix)


def read_state_csv(path: str, n: int, m: int) -> np.ndarray:
    """Read a one-row trajectory-format CSV as an (n, m) state; a file with
    more data rows, such as a solve's x.csv or g.csv, is refused."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines() or [""]
    except OSError as e:
        raise ConfigError(f"cannot read state file: {e}") from None
    rows = [r for r in rows if r.strip()]
    if len(rows) > 1:
        raise ConfigError(f"state file {os.path.basename(path)} has {len(rows)} data rows, "
                          "expected one")
    row = rows[0] if rows else ""
    cols = header.strip().split(",")
    if len(cols) != n * m + 1 or cols[0] != "t":
        raise ConfigError(
            f"state file {os.path.basename(path)} must have columns "
            f"t plus {n * m} states (got {len(cols)})"
        )
    parts = row.strip().split(",")
    if len(parts) != n * m + 1:
        raise ConfigError(f"state file row has {len(parts)} fields, expected {n * m + 1}")
    try:
        vals = [float(p) for p in parts[1:]]
    except ValueError as e:
        raise ConfigError(f"state file has a non-numeric entry: {e}") from None
    state = np.asarray(vals, dtype=float).reshape(n, m)
    if not np.all(np.isfinite(state)):
        raise ConfigError(f"state file {os.path.basename(path)} has a non-finite entry")
    return state


def write_aggregate_csv(path: str, times, means, stderrs) -> None:
    """Replication means and standard errors on the output grid."""
    n, m = np.shape(means)[1:]
    head = ["t"] + _state_labels("mean_x", n, m) + _state_labels("stderr_x", n, m)
    table = np.concatenate([means, stderrs], axis=1, dtype=float)
    _write_rows(path, head, times, table.reshape(len(table), -1))


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(out_dir: str, command: list, config_hash: str, version: str) -> str:
    """Hash every artifact in out_dir into manifest.json (relative paths only)."""
    files = {}
    for root, _dirs, names in os.walk(out_dir):
        for name in sorted(names):
            if name == "manifest.json":
                continue
            full = os.path.join(root, name)
            rel = os.path.relpath(full, out_dir).replace(os.sep, "/")
            files[rel] = _sha256_file(full)
    manifest = {
        "command": list(command),
        "config_sha256": config_hash,
        "files": files,
        "version": version,
    }
    path = os.path.join(out_dir, "manifest.json")
    write_json(path, manifest)
    return path
