"""The JSON wire format: complex numbers and complex matrices.

A complex number is the pair [re, im] (``complex_pairs``).  Matrix schema
(used by every CLI subcommand):

    {"rows": n, "cols": n, "entries": [[re, im], ...]}   # row-major
"""

import json
import sys

import numpy as np

from .linalg import InputValidationError, as_matrix, require_int

__all__ = ["matrix_to_dict", "matrix_from_dict", "load_matrix", "save_matrix"]


def is_json_number(x) -> bool:
    """An int or a float: bool subclasses int in Python but is not a JSON number."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def is_finite_number(x) -> bool:
    """A JSON number a float holds finitely: not nan, not +-inf, no int past float range."""
    return is_json_number(x) and abs(x) <= sys.float_info.max


def complex_pairs(z):
    """Nested lists of the complex array z, each entry as its [re, im] pair."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], -1).tolist()


def matrix_to_dict(m) -> dict:
    a = as_matrix(m)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "entries": complex_pairs(a.ravel())}


def matrix_from_dict(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise InputValidationError("matrix document must be a JSON object")
    for key in ("rows", "cols", "entries"):
        if key not in doc:
            raise InputValidationError(f"matrix document missing key '{key}'")
    rows, cols = require_int(doc["rows"], "rows", 1), require_int(doc["cols"], "cols", 1)
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        got = len(entries) if isinstance(entries, list) else "non-list"
        raise InputValidationError(
            f"'entries' must hold rows*cols = {rows * cols} pairs, got {got}")
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(entries):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(map(is_json_number, pair))):
            raise InputValidationError(f"entry {i} is not a [re, im] pair: {pair!r}")
        if not all(map(is_finite_number, pair)):
            raise InputValidationError(f"entry {i} is non-finite: {pair!r}")
        flat[i] = complex(float(pair[0]), float(pair[1]))
    return flat.reshape(rows, cols)


def load_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise InputValidationError(f"matrix file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputValidationError(f"malformed matrix JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputValidationError(f"matrix file is not UTF-8 text: {path}: {exc}") from exc
    return matrix_from_dict(doc)


def save_matrix(path: str, m) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_dict(m), fh)
        fh.write("\n")
