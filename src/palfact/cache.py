"""On-disk store of enumeration rows.

``ResultCache`` keeps one JSON document per length, ``row_<n>.json``, and
has two methods: ``load_row(n)`` and ``store_row(row)``.  A document is
``{"checksum", "kind": "row", "n", "payload", "schema_version": 4}``; the
checksum is the sha256 of the canonical payload.  The payload ``{"n",
"counts"}`` holds the histogram of m over all 2^n words; S(n), kbar(n) and
K(n) = max(counts) are derived on read.  This module alone knows the format.

Anything that fails validation is ignored and recomputed: bytes that do
not parse as JSON (undecodable or nested too deep included), a document of
another kind or schema (schema 1 wrote ``kmax_<n>.json`` and
``histogram_<n>.json``, schema 2 added sample words to a row and schema 3
its maximizers; none is ever read), a checksum mismatch, or a payload
impossible for its length: counts not summing to 2^n, a key other than one
of 1..n in decimal, or a count that is not positive and even.  An
unwritable directory degrades to in-memory operation with a warning, never
a hard failure.  Writes go through a temporary file and an atomic rename.
Files are written canonical (sorted keys, no indentation, no spaces); the
checksum covers the canonical payload, so an indented file of the same
schema reads alike.
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

SCHEMA_VERSION = 4


def _canonical(doc: dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _checksum(payload: dict[str, Any]) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def _possible(n: int, payload: dict[str, Any]) -> bool:
    """Whether a row payload can describe the words of length n: its counts
    cover all 2^n words at m in 1..n, and each count is even (the letter
    swap pairs the words)."""
    counts = payload.get("counts")
    keys = {str(k) for k in range(1, n + 1)}
    return (
        payload.get("n") == n
        and isinstance(counts, dict)
        and all(k in keys and isinstance(c, int) and c > 0 and c % 2 == 0 for k, c in counts.items())
        and sum(counts.values()) == 1 << n
    )


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
        return LengthRow(n, counts)

    def store_row(self, row: LengthRow) -> bool:
        """Persist the row of one length; nothing derivable is stored.
        Returns False (with a warning) when the directory cannot be written."""
        if self.directory is None:
            return False
        payload = {"n": row.n, "counts": {str(k): c for k, c in row.counts.items()}}
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
