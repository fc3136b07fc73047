"""Config files, CSV/JSON artifacts, and the output manifest.

Configs are JSON with four required sections (dimensions, rates, economics,
scales) and an optional flags section; parse errors name the offending field
or the JSON line.  Trajectory CSVs carry a time column followed by the states
flattened row-major with 1-based labels (x_1_1 ... x_n_m); floats are written
with 17 significant digits so values round-trip exactly.  Every output
directory gets a manifest.json listing relative paths and content hashes;
no timestamps, so identical runs produce identical bytes.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Optional

import numpy as np

from .model import GameConfig, SinkRates

__all__ = [
    "ConfigError",
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


def _get(section: dict, path: str, key: str, required: bool = True):
    if key not in section:
        if required:
            raise ConfigError(f"config is missing field '{path}.{key}'")
        return None
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


def _array(value, path: str) -> np.ndarray:
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"config field '{path}' is not numeric: {e}") from None
    return a


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

    dims = _section(doc, "dimensions")
    rates = _section(doc, "rates")
    econ = _section(doc, "economics")
    scales = _section(doc, "scales")
    flags = _section(doc, "flags", required=False)

    n = _get(dims, "dimensions", "n")
    m = _get(dims, "dimensions", "m")
    if not isinstance(n, int) or not isinstance(m, int) or n < 1 or m < 1:
        raise ConfigError("config fields 'dimensions.n' and 'dimensions.m' "
                          "must be positive integers")

    q_sink: Optional[SinkRates] = None
    if "q_sink" in rates:
        sink = rates["q_sink"]
        if not isinstance(sink, dict):
            raise ConfigError("config field 'rates.q_sink' must be an object")
        q_sink = SinkRates(
            direct=_array(_get(sink, "rates.q_sink", "direct"), "rates.q_sink.direct"),
            interaction=_array(
                _get(sink, "rates.q_sink", "interaction"), "rates.q_sink.interaction"
            ),
        )

    regime = _get(scales, "scales", "regime")
    detailed_balance = flags.get("detailed_balance", False)
    if not isinstance(detailed_balance, bool):
        raise ConfigError("config field 'flags.detailed_balance' must be true or false")
    for key in ("lambda", "delta", "delta_int", "delta_dis"):
        if isinstance(scales.get(key), bool):  # float() would read true as 1.0
            raise ConfigError(f"config field 'scales.{key}' must be a number, "
                              f"not {json.dumps(scales[key])}")
    try:
        cfg = GameConfig(
            n=n,
            m=m,
            q_up=_array(_get(rates, "rates", "q_up"), "rates.q_up"),
            q_down=_array(_get(rates, "rates", "q_down"), "rates.q_down"),
            q_up_evo=_array(_get(rates, "rates", "q_up_evo"), "rates.q_up_evo"),
            q_down_evo=_array(_get(rates, "rates", "q_down_evo"), "rates.q_down_evo"),
            w=_array(_get(econ, "economics", "w"), "economics.w"),
            fee_B=_array(_get(econ, "economics", "fee_B"), "economics.fee_B"),
            fee_H=_array(_get(econ, "economics", "fee_H"), "economics.fee_H"),
            lam=float(_get(scales, "scales", "lambda")),
            delta=float(_get(scales, "scales", "delta")),
            regime=regime,
            detailed_balance=detailed_balance,
            q_sink=q_sink,
            delta_int=(
                float(scales["delta_int"]) if "delta_int" in scales else None
            ),
            delta_dis=(
                float(scales["delta_dis"]) if "delta_dis" in scales else None
            ),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"config rejected: {e}") from None
    return cfg


def config_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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
    # row by row, one "%.17g" template formatting each value as fmt does
    template = ",".join(["%.17g"] * len(head)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(head) + "\n")
        for t, row in zip(np.asarray(times, dtype=float).tolist(), table):
            fh.write(template % (t, *row.tolist()))


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
    """Read the first data row of a trajectory-format CSV as an (n, m) state."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            row = fh.readline()
    except OSError as e:
        raise ConfigError(f"cannot read state file: {e}") from None
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
