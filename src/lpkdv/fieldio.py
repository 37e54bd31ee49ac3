"""Lattice-field import/export: CSV and JSON-header + binary float64.

Both formats round-trip exactly at float64 precision, kind, signed zeros and
non-finite parts included.  The CSV file has the header `n,m,re` for a real
field and `n,m,re,im` for a complex one, then one row per lattice point in
row-major order, `\\r\\n` line ends, and `repr` of each part (the shortest
decimal that reads back to the same double); the reader takes the kind from
the header and places rows by their (n, m) columns, so any row order loads.
The binary format stores raw little-endian (re, im) pairs after a one-line
JSON header that names the kind.
"""

from __future__ import annotations

import csv
import itertools
import json

import numpy as np

from .errors import DomainError
from .quad import LatticeField

_MAGIC = "lpkdv-field-v1"
_CSV_HEADERS = {"real": ["n", "m", "re"], "complex": ["n", "m", "re", "im"]}
_CSV_BLOCK_POINTS = 1 << 14   # points formatted per write, which bounds the text held


def _csv_lines(block: np.ndarray, start: int):
    """The CSV lines of the lattice rows n = start.. held in block."""
    cols = [f",{m}," for m in range(block.shape[1])]  # each line: str(n) + ",m," + reprs
    heads = map(str, itertools.count(start))
    if np.iscomplexobj(block):
        return (head + col + repr(re) + "," + repr(im) + "\r\n"
                for head, re_row, im_row in zip(heads, block.real.tolist(), block.imag.tolist())
                for col, re, im in zip(cols, re_row, im_row))
    return (head + col + repr(re) + "\r\n"
            for head, row in zip(heads, block.tolist()) for col, re in zip(cols, row))


def save_field_csv(field: LatticeField, path) -> None:
    rows_per_block = max(1, _CSV_BLOCK_POINTS // field.m_size)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_HEADERS[field.kind]) + "\r\n")
        for start in range(0, field.n_size, rows_per_block):
            fh.write("".join(_csv_lines(field.values[start:start + rows_per_block], start)))


def load_field_csv(path) -> LatticeField:
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]), [])
        kind = next((k for k, names in _CSV_HEADERS.items() if names == header), None)
        if kind is None:
            raise DomainError(f"unexpected CSV header {header}")
        row = np.dtype([(c, np.int64 if c in "nm" else np.float64) for c in header])
        body = fh.tell()
        if not fh.readline().strip():
            raise DomainError("empty field CSV")
        fh.seek(body)
        try:
            rows = np.loadtxt(fh, dtype=row, delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            raise DomainError(f"malformed field CSV row: {exc}") from None
    n, m = rows["n"], rows["m"]
    if n.min() < 0 or m.min() < 0:
        raise DomainError("negative lattice index in field CSV")
    vals = np.zeros((n.max() + 1, m.max() + 1), dtype=complex if kind == "complex" else float)
    vals.real[n, m] = rows["re"]
    if kind == "complex":
        vals.imag[n, m] = rows["im"]
    return LatticeField(vals)


def save_field_binary(field: LatticeField, path) -> None:
    header = {
        "magic": _MAGIC,
        "n_size": field.n_size,
        "m_size": field.m_size,
        "kind": field.kind,
    }
    vals = np.asarray(field.values, dtype=np.complex128)
    pairs = np.empty((field.n_size, field.m_size, 2), dtype="<f8")
    pairs[..., 0] = vals.real
    pairs[..., 1] = vals.imag
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii"))
        fh.write(b"\n")
        fh.write(pairs.tobytes())


def load_field_binary(path) -> LatticeField:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        raw = fh.read()
    try:
        header = json.loads(header_line)
    except ValueError:
        raise DomainError("binary field header is not JSON") from None
    if not isinstance(header, dict) or header.get("magic") != _MAGIC:
        raise DomainError("not an lpkdv binary field file")
    n_size, m_size, kind = (header.get(k) for k in ("n_size", "m_size", "kind"))
    if not all(type(s) is int and s >= 0 for s in (n_size, m_size)):
        raise DomainError(f"binary field sizes must be integers >= 0, got {n_size}, {m_size}")
    if kind not in ("real", "complex"):
        raise DomainError(f"binary field kind must be real or complex, got {kind!r}")
    if len(raw) != 16 * n_size * m_size:
        raise DomainError(f"binary field body has {len(raw)} bytes, "
                          f"{n_size} x {m_size} complex values need {16 * n_size * m_size}")
    # a read-only view of raw: the field takes an owned copy of its part
    vals = np.frombuffer(raw, dtype="<c16").reshape(n_size, m_size)
    return LatticeField((vals.real if kind == "real" else vals).copy())
