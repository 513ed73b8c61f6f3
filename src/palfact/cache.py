"""On-disk store of enumeration rows.

``ResultCache`` keeps one JSON document per length, ``row_<n>.json``, and
has two methods: ``load_row(n)`` and ``store_row(row)``.  A document is
``{"checksum", "kind": "row", "n", "payload", "schema_version": 3}``; the
checksum is the sha256 of the canonical payload.  The payload ``{"n",
"counts", "maximizers"}`` holds the histogram of m over all 2^n words and
every a-initial maximizer as a packed word, ascending; K(n) = max(counts),
the maximizer count counts[K] and the sample orbit representatives are
derived on read, so they cannot disagree with what is stored.  This module
alone knows the format.

Anything that fails validation is ignored and recomputed: bytes that do
not parse as JSON (undecodable or nested too deep included), a document of
another kind or schema (schema 1 wrote ``kmax_<n>.json`` and
``histogram_<n>.json``, schema 2 stored sample words in place of the
maximizers; neither is ever read), a checksum mismatch, or a payload
impossible for its length: counts not summing to 2^n, a key other than one
of 1..n in decimal, a count that is not positive and even, or maximizers
that are not strictly ascending even integers in [0, 2^n), one for each
pair of words counted at K.  An unwritable directory degrades to in-memory
operation with a warning, never a hard failure.  Writes go through a
temporary file and an atomic rename.  Files are written canonical (sorted
keys, no indentation, no spaces); the checksum covers the canonical
payload, so an indented file of the same schema reads alike.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Any

from .rows import LengthRow

__all__ = ["SCHEMA_VERSION", "ResultCache"]

SCHEMA_VERSION = 3


def _canonical(doc: dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _checksum(payload: dict[str, Any]) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def _possible(n: int, payload: dict[str, Any]) -> bool:
    """Whether a row payload can describe the words of length n: its counts
    cover all 2^n words at m in 1..n, each count is even (the letter swap
    pairs the words), and its maximizers are distinct a-initial (even)
    words of length n, ascending, half of the counts[K] words at the
    maximum K."""
    counts, maximizers = payload.get("counts"), payload.get("maximizers")
    keys = {str(k) for k in range(1, n + 1)}
    if not (
        payload.get("n") == n
        and isinstance(counts, dict)
        and all(k in keys and isinstance(c, int) and c > 0 and c % 2 == 0 for k, c in counts.items())
        and sum(counts.values()) == 1 << n
        and isinstance(maximizers, list)
        and all(type(b) is int and b % 2 == 0 and 0 <= b < 1 << n for b in maximizers)
    ):
        return False
    top = max(counts, key=int)
    return 2 * len(maximizers) == counts[top] and all(a < b for a, b in zip(maximizers, maximizers[1:]))


class ResultCache:
    """The rows stored under one directory; None disables caching.  An
    empty path is a ValueError: ``Path("")`` is the working directory."""

    def __init__(self, directory: str | os.PathLike | None) -> None:
        if directory is not None and not os.fspath(directory):
            raise ValueError("cache directory must not be empty")
        self.directory = Path(directory) if directory is not None else None
        self._writable: bool | None = None

    def load_row(self, n: int) -> LengthRow | None:
        """The cached row of length n, or None when absent/stale/corrupt."""
        if self.directory is None:
            return None
        path = self.directory / f"row_{n}.json"
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            raw = json.loads(data)
        except (ValueError, RecursionError):  # bad bytes or JSON, or nesting too deep
            warnings.warn(f"ignoring unparseable cache file {path}", stacklevel=2)
            return None
        if not isinstance(raw, dict):
            warnings.warn(f"ignoring malformed cache file {path}", stacklevel=2)
            return None
        payload = raw.get("payload")
        if (
            raw.get("kind") != "row"
            or raw.get("n") != n
            or raw.get("schema_version") != SCHEMA_VERSION
            or not isinstance(payload, dict)
            or raw.get("checksum") != _checksum(payload)
            or not _possible(n, payload)
        ):
            warnings.warn(f"ignoring stale or corrupt cache file {path}", stacklevel=2)
            return None
        counts = dict(sorted((int(k), c) for k, c in payload["counts"].items()))
        return LengthRow(n, counts, tuple(payload["maximizers"]))

    def store_row(self, row: LengthRow) -> bool:
        """Persist the row of one length; nothing derivable is stored.
        Returns False (with a warning) when the directory cannot be written."""
        if self.directory is None:
            return False
        payload = {"n": row.n, "counts": {str(k): c for k, c in row.counts.items()}, "maximizers": list(row.maximizers)}
        doc = {"kind": "row", "n": row.n, "schema_version": SCHEMA_VERSION, "payload": payload}
        doc["checksum"] = _checksum(payload)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(_canonical(doc))
                os.replace(tmp_name, self.directory / f"row_{row.n}.json")
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError as exc:
            if self._writable is not False:
                warnings.warn(f"cache directory not writable ({exc}); continuing in memory", stacklevel=2)
            self._writable = False
            return False
        self._writable = True
        return True
