"""Deterministic JSON and CSV emission.

Reports must be byte-identical across runs with equal inputs, so floats
are rendered with a fixed 17-significant-digit format instead of the
shortest-roundtrip repr.  Non-finite values (possible in residual tables)
are rendered as the strings "inf", "-inf", "nan".
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import linalg as la
from .blockparam import BlockMatrix
from .linalg import DEFAULT_TOL, Tolerance
from .systems import DiscreteSystem


def _fmt_float(x: float) -> str:
    if np.isnan(x):
        return '"nan"'
    if np.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def dumps(obj) -> str:
    """Serialize dicts/lists/str/bool/int/float/None with fixed float format."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, dict):
        items = ",".join(f"{dumps(str(k))}:{dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        pairs = _pairs(obj)
        if pairs is not None:
            return pairs
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _pairs(obj) -> str | None:
    """A matrix's data, a nonempty list of [re, im] lists of finite Python
    floats none of which is -0.0, in one %-format call; None for anything
    else, which takes the recursive path.  The format is the one that path
    gives each float, so the bytes are the same."""
    if not obj or not all(type(p) is list and len(p) == 2 for p in obj):
        return None
    values = tuple(itertools.chain.from_iterable(obj))
    if not (all(type(x) is float for x in values) and all(map(math.isfinite, values))):
        return None
    if 0.0 in values and any(math.copysign(1.0, x) < 0 for x in values if x == 0.0):
        return None
    return "[" + ",".join(["[%.17g,%.17g]"] * len(obj)) % values + "]"


def block_to_json(block: BlockMatrix) -> dict:
    return {
        "m": block.in_dim,
        "n": block.out_dim,
        "h": block.state_in_dim,
        "k": block.state_out_dim,
        "D": la.matrix_to_json(block.d),
        "C": la.matrix_to_json(block.c),
        "B": la.matrix_to_json(block.b),
        "A": la.matrix_to_json(block.a),
    }


def block_from_json(obj: dict) -> BlockMatrix:
    m, n = int(obj["m"]), int(obj["n"])
    h, k = int(obj["h"]), int(obj["k"])
    blocks = {}
    for key, shape in (("D", (n, m)), ("C", (n, h)), ("B", (k, m)), ("A", (k, h))):
        mat = la.matrix_from_json(obj[key])
        if mat.shape != shape:
            raise ValueError(f"block {key} has shape {mat.shape}, header says {shape}")
        blocks[key] = mat
    return BlockMatrix(blocks["D"], blocks["C"], blocks["B"], blocks["A"])


def system_to_json(sys: DiscreteSystem, classification: dict | None = None) -> dict:
    out = block_to_json(sys.block)
    if classification is not None:
        out["classification"] = classification
    return out


def system_from_json(obj: dict, tol: Tolerance = DEFAULT_TOL) -> DiscreteSystem:
    return DiscreteSystem(block_from_json(obj), tol)


def sample_csv(values: list[tuple[complex, np.ndarray]]) -> str:
    """CSV rows (re lambda, im lambda, entries re/im, row-major)."""
    if not values:
        return ""
    rows, cols = values[0][1].shape
    header = ["re_lambda", "im_lambda"]
    for i in range(rows):
        for j in range(cols):
            header += [f"re_{i}_{j}", f"im_{i}_{j}"]
    lines = [",".join(header)]
    for lam, mat in values:
        cells = ["%.17g" % lam.real, "%.17g" % lam.imag]
        for z in mat.reshape(-1):
            cells += ["%.17g" % z.real, "%.17g" % z.imag]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
