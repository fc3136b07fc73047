"""Config files, CSV/JSON artifacts, and the output manifest.

Configs are JSON with four required sections (dimensions, rates, economics,
scales) and an optional flags section, every field listed once in _FIELDS
with its kind; parse errors name the offending field or the JSON line.
Trajectory CSVs carry a time column followed by the states flattened
row-major with 1-based labels (x_1_1 ... x_n_m); every float is written
byte for byte as '%.17g' % v writes it, so values round-trip exactly.
Large blocks of rows are formatted in bulk by numpy (bulkfmt); the '%'
template formats the rest, and is the fallback and the tests' oracle.
JSON goes through one indent-2 encoder, byte for byte as json.dumps writes it;
config documents that share subtrees may pass one memo through it and
through the config reader, which then encode and read each shared one once.
Every writer goes through write_chunks, which rewrites a file already at
its path in place.  Every writer takes an optional dict, written, which gets
each path it writes with the SHA-256 of the bytes written.  A run's
manifest.json lists those files by relative path with their hashes, so a
file already in the output directory is not listed; no timestamps, so
identical runs produce identical bytes.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from operator import ne

import numpy as np

from .model import GameConfig, SinkRates

__all__ = [
    "ConfigError",
    "check_fields",
    "parse_int",
    "read_config_doc",
    "read_config",
    "config_sha256",
    "fmt",
    "jsonable",
    "write_chunks",
    "write_json",
    "write_config_doc",
    "write_trajectory_csv",
    "write_state_csv",
    "read_state_csv",
    "write_aggregate_csv",
    "write_manifest",
]


class ConfigError(ValueError):
    pass


# Every config field by its dotted name, each object before its fields, and its
# kind; those in _OPTIONAL may be absent.  A section given as null counts as absent.
_FIELDS = {
    "dimensions": "object", "dimensions.n": "number", "dimensions.m": "number",
    "rates": "object", "rates.q_up": "array", "rates.q_down": "array",
    "rates.q_up_evo": "array", "rates.q_down_evo": "array", "rates.q_sink": "object",
    "rates.q_sink.direct": "array", "rates.q_sink.interaction": "array",
    "economics": "object", "economics.w": "array", "economics.fee_B": "array",
    "economics.fee_H": "array", "scales": "object", "scales.lambda": "number",
    "scales.delta": "number", "scales.regime": "text",
    "flags": "object", "flags.detailed_balance": "bool",
}
_OPTIONAL = {"rates.q_sink", "flags", "flags.detailed_balance"}


def check_fields(doc, memo: dict | None = None) -> None:
    """Refuse a root that is not an object, and by its dotted name a config field
    _FIELDS does not list or a key with a dot.

    memo, if given, keeps each document that passed, by its id, so a document
    checked again is not walked again; the caller must mutate none of them
    while the memo lives."""
    checked = (id(doc), "check_fields")
    if memo is not None and memo.get(checked) is doc:   # held with doc, so no other takes its id
        return
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    objects = [("", doc)]
    for prefix, obj in objects:  # the list grows by each listed object met
        for key, value in obj.items():
            name = prefix + key
            if "." in key or name not in _FIELDS:
                raise ConfigError(f"config has unknown field '{name}'")
            if isinstance(value, dict) and _FIELDS[name] == "object":
                objects.append((name + ".", value))
    if memo is not None:
        memo[checked] = doc


def _numeric(name: str, value, kind: str):
    """A number, or an array of numbers, once each JSON leaf is exactly an int or
    a float: numpy reads true as 1 and "2.5" as 2.5, so a bool, string or null
    (or a list where one number belongs) is refused by name, and so is an int
    beyond float64's range, which float() cannot hold."""
    leaves = [value]
    for leaf in leaves:  # the list grows by the entries of each list met
        if type(leaf) is list and kind == "array":
            leaves.extend(leaf)
        elif type(leaf) not in (int, float):
            raise ConfigError(f"config rejected: field '{name}' is not numeric: "
                              f"{json.dumps(leaf)} must be a number")
        elif type(leaf) is int and abs(leaf) > sys.float_info.max:
            raise ConfigError(f"config rejected: field '{name}' holds an integer "
                              "beyond float64's range")
    if kind == "number":
        return value
    try:
        return np.asarray(value, dtype=float)
    except ValueError as e:  # a ragged list
        raise ConfigError(f"config field '{name}' is not numeric: {e}") from None


def _read_fields(doc: dict, memo: dict | None = None) -> dict:
    """Each config field read by its kind and keyed by its last name, an object
    field's own fields in a dict under its name.  A missing field, or one not of
    its kind, is refused by its dotted name; text goes on to GameConfig as it is.

    memo, if given, keeps each array field read with its JSON value, by the
    value's id and the field's name, so documents that share a field's list
    check and convert it once; the caller must mutate none of them while the
    memo lives."""
    top = {}
    objects = {"": (doc, top)}   # each object read: its JSON and the dict its fields fill
    for name, kind in _FIELDS.items():
        parent, _, key = name.rpartition(".")
        if parent not in objects:   # an optional object that is absent
            continue
        obj, into = objects[parent]
        if (value := obj.get(key)) is None and (key not in obj or not parent):
            if name in _OPTIONAL:
                continue
            raise ConfigError(f"config is missing field '{name}'" if parent
                              else f"config is missing the '{name}' section")
        if kind == "object" and isinstance(value, dict):
            objects[name] = (value, into.setdefault(key, {}) if parent else top)
        elif kind == "object":
            raise ConfigError(f"config {'field' if parent else 'section'} '{name}' "
                              "must be an object")
        elif kind == "bool" and not isinstance(value, bool):
            raise ConfigError(f"config field '{name}' must be true or false")
        elif kind == "array" and memo is not None:
            if (hit := memo.get((id(value), name))) is None:   # held with value, as in _json
                hit = memo[id(value), name] = value, _numeric(name, value, kind)
            into[key] = hit[1]
        else:
            into[key] = _numeric(name, value, kind) if kind in ("number", "array") else value
    return top


def parse_int(text: str) -> int:
    """A JSON integer; one of more than 309 digits is beyond float64's range and
    reads as +-10**309, never reaching int()'s 4300-digit limit."""
    if len(text.lstrip("-")) > 309:
        return -10**309 if text.startswith("-") else 10**309
    return int(text)


def read_config_doc(path: str):
    """The parsed JSON of a config file; unreadable files and bad JSON are ConfigErrors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=parse_int)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config is not valid JSON (line {e.lineno}, column {e.colno}): {e.msg}"
        ) from None


def read_config(source, memo: dict | None = None) -> GameConfig:
    """A GameConfig from a config path or a parsed document; shape checks happen
    there too.  memo, if given, is check_fields' and _read_fields', so a
    document check_fields passed with it is not checked again."""
    doc = read_config_doc(source) if isinstance(source, (str, os.PathLike)) else source
    check_fields(doc, memo)
    kwargs = _read_fields(doc, memo)
    kwargs["lam"] = kwargs.pop("lambda")
    n, m = kwargs["n"], kwargs["m"]
    if not isinstance(n, int) or not isinstance(m, int) or n < 1 or m < 1:
        raise ConfigError("config fields 'dimensions.n' and 'dimensions.m' "
                          "must be positive integers")
    if "q_sink" in kwargs:
        kwargs["q_sink"] = SinkRates(**kwargs["q_sink"])
    try:
        return GameConfig(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"config rejected: {e}") from None


def config_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


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


# write_chunks opens its path with these flags, not with "wb", whose flags
# include O_TRUNC (os has O_BINARY on Windows only)
_IN_PLACE = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_chunks(path: str, chunks, written: dict | None = None) -> None:
    """Write the chunks of bytes to path in turn; written, if given, gets path
    with the SHA-256 of all of them.

    A file already at path is rewritten in place and then cut at the end of
    what was written, so it holds exactly the chunks; an exception from the
    chunks leaves the ones written before it, as a truncating open would.
    The open does not truncate: a rerun into an existing output directory
    overwrites each file's blocks, where a truncation would free them first,
    and on a file system mounted with discard freeing them costs more than
    writing the file.  A new or empty file has nothing to cut, and a device
    or a pipe, which reports no size, cannot be cut.  A process killed while
    it writes (where the cut never runs) leaves the new bytes followed by the
    tail of a longer old file, which can read as a whole file: after such a
    run, trust only the files whose bytes match their hash in a manifest."""
    digest = hashlib.sha256()
    with open(os.open(path, _IN_PLACE, 0o666), "wb") as fh:
        held = os.fstat(fh.fileno()).st_size > 0   # bytes an earlier write left
        try:
            for data in chunks:
                fh.write(data)
                digest.update(data)
        finally:
            if held:
                fh.truncate()
    if written is not None:
        written[path] = digest.hexdigest()


_ESCAPE = json.encoder.encode_basestring_ascii
_NULLS = dict.fromkeys(("nan", "inf", "-inf"), "null")             # as jsonable has them
_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json writes them


def _json(obj, pad: str, nonfinite: dict, memo: dict | None = None) -> str:
    """obj as json.dumps(jsonable(obj), indent=2, sort_keys=True) writes it at the
    indent pad (a line break, 2 spaces a level), non-finite floats spelled by
    nonfinite, in one walk that joins a list of floats with one repr each.

    memo, if given, keeps each list or dict met with its text, by its id, pad
    and spelling, so a container met again is not walked again; the caller
    must mutate none of them while the memo lives."""
    kind = type(obj)
    if kind is float:
        text = float.__repr__(obj)
        return nonfinite[text] if "n" in text else text
    if kind is str:
        return _ESCAPE(obj)
    if kind is np.ndarray:
        return _json(obj.tolist(), pad, nonfinite, memo)
    if kind is not list and kind is not dict and kind is not tuple:
        obj = jsonable(obj)   # numpy scalars, complex values, subclasses
        if not isinstance(obj, (dict, list)):   # json refuses what jsonable leaves unknown
            return json.dumps(obj)
    if memo is None:
        return _json_container(obj, pad, nonfinite, None)
    key = (id(obj), pad, id(nonfinite))
    if (hit := memo.get(key)) is None:   # held with obj, so no other object takes its id
        hit = memo[key] = obj, _json_container(obj, pad, nonfinite, memo)
    return hit[1]


def _json_container(obj, pad: str, nonfinite: dict, memo: dict | None) -> str:
    """_json of a dict, list or tuple."""
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = pad + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        return "{" + inner + sep.join([_ESCAPE(k) + ": " + _json(items[k], inner, nonfinite, memo)
                                       for k in sorted(items)]) + pad + "}"
    if set(map(type, obj)) == {float}:   # each finite unless its repr has an n
        text = sep.join(map(float.__repr__, obj))
        if "n" not in text:
            return "[" + inner + text + pad + "]"
    return "[" + inner + sep.join([_json(v, inner, nonfinite, memo) for v in obj]) + pad + "]"


def write_json(path: str, obj, written: dict | None = None) -> None:
    """obj as json.dumps(jsonable(obj), indent=2, sort_keys=True, allow_nan=False) writes it."""
    write_chunks(path, [(_json(obj, "\n", _NULLS) + "\n").encode()], written)


def write_config_doc(path: str, doc, written: dict | None = None,
                     memo: dict | None = None) -> None:
    """doc as json.dumps(doc, indent=2, sort_keys=True) writes it, NaN and Infinity
    kept; memo, if given, is _json's, so documents that share subtrees encode
    each shared one once."""
    write_chunks(path, [(_json(doc, "\n", _NAMES, memo) + "\n").encode()], written)


def _state_labels(prefix: str, n: int, m: int) -> list:
    return [f"{prefix}_{i + 1}_{j + 1}" for i in range(n) for j in range(m)]


# The CSV writer takes a block of rows at a time.  A block with enough new
# values, most of them in bulkfmt's range, is formatted by numpy; every other
# block, and every value outside the range, by the "%.17g" template.
WRITE_BLOCK_BYTES = 1 << 19   # a block's text and temporaries stay within this
_VALUE_BYTES = 192            # a bulk block's bytes per value, with margin
_BULK_MIN = 400               # fewer new values in a block: "%" pays
_BULK_SHARE = 0.6             # a smaller share of them in range: "%" pays


def _bulk_lines(t, rows, new) -> bytes | None:
    """A block's lines with its values formatted by numpy, those outside the
    range by one "%"; None when too few of its new values lie in the range.
    Each row that is not new repeats its predecessor's text."""
    # imported here, so that a process writing only small tables never loads it
    from .bulkfmt import MARK, SLOT, format_slots, in_range
    width = rows.shape[1]
    v = np.concatenate([t, rows[new].ravel()])
    ok = in_range(v)
    if np.count_nonzero(ok) < _BULK_SHARE * len(v):
        return None
    slots = format_slots(v, ok)
    del v, ok
    values = slots[len(t):].reshape(-1, width, SLOT)
    values[:, -1, -1] = ord("\n")
    text = np.empty((len(t), width + 1, SLOT), np.uint8)
    text[:, 0] = slots[:len(t)]
    text[:, 1:] = values if len(values) == len(t) else values[np.cumsum(new) - 1]
    del slots, values
    marked = text[:, :, 0] == ord(MARK)
    out = text.tobytes().translate(None, b"\0")
    if not marked.any():
        return out
    fills = np.column_stack([t, rows])[marked].tolist()
    pieces = [b""] * (2 * len(fills) + 1)
    pieces[::2] = out.split(MARK)
    pieces[1::2] = (MARK.join([b"%.17g"] * len(fills)) % tuple(fills)).split(MARK)
    return b"".join(pieces)


def _row_lines(head: list, times, *tables: np.ndarray):
    """The header, then t and the row's values, the tables' columns side by
    side, one line per row and every value as "%.17g" formats it, as bytes a
    block of rows at a time; only a block of the tables is ever joined.  A row
    whose bits equal the previous row's reuses its text."""
    times = np.asarray(times, dtype=float)
    tables = [np.ascontiguousarray(table, dtype=float) for table in tables]
    width = sum([table.shape[1] for table in tables])
    template = b"".join([b",%.17g"] * width) + b"\n"
    size = max(1, WRITE_BLOCK_BYTES // (_VALUE_BYTES * (width + 1)))
    last = text = None   # the bits and text of the template's last row
    yield (",".join(head) + "\n").encode()
    for start in range(0, len(times), size):
        rows = np.concatenate([table[start:start + size] for table in tables], axis=1)
        t = times[start:start + size]
        keys = [row.tobytes() for row in rows]
        new = list(map(ne, keys, [last] + keys[:-1]))
        if sum(new) * width >= _BULK_MIN:
            new[0] = True   # the block's own text starts at its first row
            if (out := _bulk_lines(t, rows, np.array(new))) is not None:
                yield out
                continue
        lines, stamps = [], (b"%.17g\0" * len(t) % tuple(t.tolist())).split(b"\0")   # t: one "%"
        for stamp, row, changed in zip(stamps, rows, new):
            if changed:
                text = template % tuple(row.tolist())
            lines += stamp, text
        yield b"".join(lines)
        last = keys[-1]


def write_trajectory_csv(path: str, times, values, prefix: str = "x",
                         written: dict | None = None) -> None:
    """times (T,) and values (T, n, m) to CSV: t, then states row-major."""
    values = np.asarray(values, dtype=float)
    n, m = values.shape[1], values.shape[2]
    head = ["t"] + _state_labels(prefix, n, m)
    write_chunks(path, _row_lines(head, times, values.reshape(len(values), -1)), written)


def write_state_csv(path: str, state, prefix: str = "x", t: float = 0.0,
                    written: dict | None = None) -> None:
    """Single state matrix as a one-row trajectory CSV."""
    a = np.asarray(state, dtype=float)
    write_trajectory_csv(path, [t], a[None, :, :], prefix=prefix, written=written)


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


def write_aggregate_csv(path: str, times, means, stderrs, written: dict | None = None) -> None:
    """Replication means and standard errors on the output grid."""
    n, m = np.shape(means)[1:]
    head = ["t"] + _state_labels("mean_x", n, m) + _state_labels("stderr_x", n, m)
    flat = [np.reshape(a, (len(a), -1)) for a in (means, stderrs)]
    write_chunks(path, _row_lines(head, times, *flat), written)


def write_manifest(out_dir: str, command: list, config_hash: str, version: str,
                   written: dict) -> str:
    """manifest.json in out_dir: the command, the config's hash, the version and
    the files the writers recorded in written, by path relative to out_dir,
    each with the SHA-256 of the bytes written.  Nothing is read back."""
    files = {os.path.relpath(path, out_dir).replace(os.sep, "/"): digest
             for path, digest in written.items()}
    manifest = {
        "command": list(command),
        "config_sha256": config_hash,
        "files": files,
        "version": version,
    }
    path = os.path.join(out_dir, "manifest.json")
    write_json(path, manifest)
    return path
