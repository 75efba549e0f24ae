"""Byte-deterministic array container.

Layout: magic, little-endian u32 header length, canonical JSON header,
then raw C-order little-endian array payloads in header order.  Arrays
are stored sorted by name and the JSON is emitted with sorted keys and
no incidental whitespace, so identical content always serializes to
identical bytes (unlike zip-based formats, which may embed timestamps).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

__all__ = ["save_arrays", "load_arrays", "CheckpointError"]

_MAGIC = b"SPBCKPT1\n"

_DTYPES = {"float64": "<f8", "int64": "<i8", "uint8": "|u1"}


class CheckpointError(ValueError):
    pass


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    entries = []
    payloads = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        dt = str(arr.dtype)
        if dt not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {dt} for array {name!r}")
        raw = arr.astype(_DTYPES[dt]).tobytes(order="C")
        entries.append({"name": name, "shape": list(arr.shape), "dtype": dt,
                        "nbytes": len(raw)})
        payloads.append(raw)
    header = json.dumps({"meta": meta or {}, "arrays": entries},
                        sort_keys=True, separators=(",", ":")).encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for raw in payloads:
            f.write(raw)
    tmp.replace(path)


def load_arrays(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(_MAGIC):
        raise CheckpointError(f"{path}: bad magic")
    off = len(_MAGIC)
    (hlen,) = struct.unpack_from("<I", blob, off)
    off += 4
    header = json.loads(blob[off : off + hlen].decode())
    off += hlen
    arrays: dict[str, np.ndarray] = {}
    for ent in header["arrays"]:
        raw = blob[off : off + ent["nbytes"]]
        if len(raw) != ent["nbytes"]:
            raise CheckpointError(f"{path}: truncated payload for {ent['name']!r}")
        arr = np.frombuffer(raw, dtype=_DTYPES[ent["dtype"]]).reshape(ent["shape"])
        arrays[ent["name"]] = arr.astype(ent["dtype"])     # a fresh, writable copy
        off += ent["nbytes"]
    return arrays, header["meta"]
