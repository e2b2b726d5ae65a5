"""Flat-file matrix exchange format.

A matrix is a JSON document with a ``dim`` field and ``entries`` as an
array of [re, im] pairs in row-major order. Trivially producible from any
environment and diffable. All structural problems raise ParseError.

``dumps`` writes matrix documents and reports: it returns exactly
``json.dumps(payload, indent=2, sort_keys=True)`` of the payload with its
arrays as lists, but renders each non-empty finite ``(k, 2)`` ``float64``
array, such as a ``matrix_document``'s ``entries``, in one pass (a
``repr`` of each item, then one join with the layout between the items)
instead of through the pure-Python indenting encoder. Everything else,
lists of ``[re, im]`` pairs included, goes through ``json.dumps``.

A Hermitian matrix is written with each mirrored float rendered once. When
a strictly-lower entry's real part has the same bits as its transposed
twin's, it reuses the twin's string; when its imaginary part is the twin's
with the sign bit flipped, it takes the twin's string with its sign
flipped (``-`` stripped or prepended), which is that float's ``repr`` for
every finite float, ±0.0 included. Every other float gets its own
``repr``, so the bytes are the same as without the shortcut.
"""

from __future__ import annotations

import json
import math
import os
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
    """Read a matrix document from a str, bytes or os.PathLike ``path``; an OSError propagates."""
    path = os.fsdecode(path)
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return matrix_from_payload(payload)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_matrix(path, M) -> None:
    """Write a matrix document to ``path``; a non-finite ``M`` raises ParseError."""
    document = matrix_document(M)
    if not np.isfinite(document["entries"]).all():
        raise ParseError("matrix entries must be finite to be saved")
    Path(os.fsdecode(path)).write_text(dumps(document) + "\n", encoding="utf-8")


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
    items = _pair_items(value)
    if items is None:
        if type(value) is np.ndarray:
            value = value.tolist()
        # json.dumps escapes newlines inside strings, so every "\n" it
        # returns starts a line of the layout.
        chunks.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", newline))
        return
    deeper = inner + "  "
    # each item followed by the layout up to the next one, joined once
    pieces = [None, f",{deeper}", None, f"{inner}],{inner}[{deeper}"] * (len(items) // 2)
    pieces[::2] = items
    pieces[-1] = f"{inner}]{newline}]"
    chunks += [f"[{inner}[{deeper}", "".join(pieces)]


def _pair_items(value):
    """The ``repr`` of each item of a non-empty finite ``(k, 2)`` float64
    array in row-major order, each mirrored item its twin's string; else None.
    """
    if type(value) is not np.ndarray or value.dtype != np.float64 or value.shape[1:] != (2,):
        return None
    if not value.size or not np.isfinite(value).all():
        return None
    mirrored = mirrored_items(value)
    if mirrored is None:
        return list(map(repr, value.ravel().tolist()))
    strings = np.empty(mirrored.shape, dtype=object)
    own = ~mirrored
    strings[own] = list(map(repr, value.reshape(mirrored.shape)[own].tolist()))
    twins = strings.transpose(1, 0, 2)
    real, imag = mirrored[..., 0], mirrored[..., 1]
    strings[..., 0][real] = twins[..., 0][real]
    strings[..., 1][imag] = [s[1:] if s[0] == "-" else "-" + s for s in twins[..., 1][imag]]
    return strings.ravel().tolist()


_SIGN_BIT = np.array([0, 1 << 63], dtype=np.uint64)


def mirrored_items(entries):
    """Which items of the ``(n², 2)`` float64 ``entries`` of an n×n matrix
    mirror their transposed twin, as an ``(n, n, 2)`` mask, or None when
    ``entries`` is not square or nothing mirrors.

    Only strictly-lower items are marked: a real part whose bits equal its
    twin's, an imaginary part whose bits are its twin's with the sign bit
    flipped.
    """
    n = math.isqrt(len(entries))
    if n * n != len(entries) or n < 2:
        return None
    bits = entries.view(np.uint64).reshape(n, n, 2)
    mask = bits == (bits.transpose(1, 0, 2) ^ _SIGN_BIT)
    mask &= np.tri(n, k=-1, dtype=bool)[:, :, None]
    return mask if mask.any() else None
