"""Flat-file matrix exchange format.

A matrix is a JSON document with a ``dim`` field and ``entries`` as an
array of [re, im] pairs in row-major order. Trivially producible from any
environment and diffable. All structural problems raise ParseError.

``dumps`` writes matrix documents and reports: it returns exactly
``json.dumps(payload, indent=2, sort_keys=True)`` of the payload with its
arrays as lists, but renders each list of finite ``[re, im]`` float pairs,
and each finite ``(k, 2)`` ``float64`` array such as a
``matrix_document``'s ``entries``, in one pass instead of through the
pure-Python indenting encoder.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ParseError


def matrix_document(M) -> dict:
    """The matrix document of ``M`` with ``entries`` as an ``(n², 2)`` float64 view."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ParseError(f"expected a square matrix, got shape {A.shape}")
    entries = np.ascontiguousarray(A).view(np.float64).reshape(-1, 2)
    return {"dim": int(A.shape[0]), "entries": entries}


def matrix_to_payload(M) -> dict:
    document = matrix_document(M)
    return {"dim": document["dim"], "entries": document["entries"].tolist()}


def matrix_from_payload(payload) -> np.ndarray:
    if not isinstance(payload, dict):
        raise ParseError(f"expected a JSON object, got {type(payload).__name__}")
    missing = {"dim", "entries"} - set(payload)
    if missing:
        raise ParseError(f"missing required field(s): {sorted(missing)}")

    dim = payload["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"'dim' must be a positive integer, got {dim!r}")

    entries = payload["entries"]
    if not isinstance(entries, list) or len(entries) != dim * dim:
        got = len(entries) if isinstance(entries, list) else type(entries).__name__
        raise ParseError(f"'entries' must hold dim^2 = {dim * dim} pairs, got {got}")

    flat = _number_pairs(entries)
    if flat is None or not np.isfinite(flat).all():
        for i, pair in enumerate(entries):  # name the first offending entry
            values = _number_pairs([pair])
            if values is None:
                raise ParseError(f"entry {i} must be a [re, im] pair of numbers, got {pair!r}")
            if not np.isfinite(values).all():
                raise ParseError(f"entry {i} is not finite: {pair!r}")
    return flat.view(np.complex128).reshape(dim, dim)


def _number_pairs(value):
    """float64 items of a list of [number, number] lists (bools excluded), else None.

    An integer too large for a float64 reads as inf.
    """
    if not all(issubclass(t, list) for t in set(map(type, value))) or set(map(len, value)) != {2}:
        return None
    kinds = set(map(type, chain.from_iterable(value)))
    if not all(issubclass(t, (int, float)) and t is not bool for t in kinds):
        return None
    try:
        return np.fromiter(chain.from_iterable(value), dtype=np.float64, count=2 * len(value))
    except OverflowError:
        return np.array([np.inf])


def load_matrix(path) -> np.ndarray:
    """Read a matrix document from ``path``."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int_max_str_digits
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return matrix_from_payload(payload)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_matrix(path, M) -> None:
    """Write a matrix document to ``path``."""
    Path(path).write_text(dumps(matrix_document(M)) + "\n", encoding="utf-8")


def dumps(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte."""
    chunks: list[str] = []
    _emit(payload, "\n", chunks)
    return "".join(chunks)


def _emit(value, newline: str, chunks: list) -> None:
    """Append ``value``'s pieces, ``newline`` holding its line's indentation."""
    inner = newline + "  "
    if type(value) is dict and value and all(type(key) is str for key in value):
        opening = "{"
        for key in sorted(value):
            chunks.append(f"{opening}{inner}{json.dumps(key)}: ")
            _emit(value[key], inner, chunks)
            opening = ","
        chunks.append(newline + "}")
        return
    flat = _float_pairs(value)
    if flat is None:
        if type(value) is np.ndarray:
            value = value.tolist()
        # json.dumps escapes newlines inside strings, so every "\n" it
        # returns starts a line of the layout.
        chunks.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", newline))
        return
    deeper = inner + "  "
    pair = f"{inner}[{deeper}%r,{deeper}%r{inner}]"
    chunks.append("[")
    chunks.append(",".join([pair] * len(value)) % tuple(flat))
    chunks.append(newline + "]")


def _float_pairs(value):
    """The flattened items of a non-empty list of finite [float, float] lists,
    or of a non-empty finite ``(k, 2)`` float64 array, else None.

    %r of an exact float is ``float.__repr__``, which is how json writes a
    finite float. A finite sum proves every item finite; a sum that
    overflows sends finite pairs to json.dumps, which is slower, not wrong.
    """
    if type(value) is np.ndarray and value.dtype == np.float64 and value.shape[1:] == (2,):
        flat = value.ravel().tolist()
    elif type(value) is list and set(map(type, value)) == {list} and set(map(len, value)) == {2}:
        flat = list(chain.from_iterable(value))
        if set(map(type, flat)) != {float}:
            return None
    else:
        return None
    return flat if flat and math.isfinite(sum(flat)) else None
