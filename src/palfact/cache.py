"""On-disk result cache for enumeration rows.

One JSON document per (kind, n), named ``<kind>_<n>.json``, carrying a
schema version and a payload checksum.  Anything that fails validation,
including a payload impossible for its length, is ignored and recomputed;
an unwritable directory degrades to in-memory operation with a warning,
never a hard failure.  Writes go through a temporary file and an atomic
rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["SCHEMA_VERSION", "CacheEntry", "ResultCache", "payload_checksum"]

SCHEMA_VERSION = 1


def payload_checksum(payload: dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _possible(kind: str, n: int, payload: dict[str, Any]) -> bool:
    """Whether a payload can describe the words of length n: a histogram
    counts all 2^n words at m in 1..n, and K(n) in 1..n is attained by an
    even number of words (the letter swap pairs them)."""
    if payload.get("n") != n:
        return False
    if kind == "histogram":
        counts = payload.get("counts")
        return (
            isinstance(counts, dict)
            and all(k.isdecimal() and 1 <= int(k) <= n and isinstance(c, int) and c > 0 for k, c in counts.items())
            and sum(counts.values()) == 1 << n
        )
    if kind == "kmax":
        k, count = payload.get("K"), payload.get("maximizer_count")
        return isinstance(k, int) and 1 <= k <= n and isinstance(count, int) and count > 0 and count % 2 == 0
    return False


@dataclass(frozen=True)
class CacheEntry:
    kind: str
    n: int
    payload: dict[str, Any]
    version: int = SCHEMA_VERSION

    @property
    def checksum(self) -> str:
        return payload_checksum(self.payload)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "n": self.n,
                "schema_version": self.version,
                "checksum": self.checksum,
                "payload": self.payload,
            },
            sort_keys=True,
            indent=2,
        )


class ResultCache:
    """Load/store cache entries under one directory; None disables caching."""

    def __init__(self, directory: str | os.PathLike | None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self._writable: bool | None = None

    def _path(self, kind: str, n: int) -> Path:
        assert self.directory is not None
        return self.directory / f"{kind}_{n}.json"

    def load(self, kind: str, n: int) -> dict[str, Any] | None:
        """The validated payload, or None when absent/stale/corrupt."""
        if self.directory is None:
            return None
        path = self._path(kind, n)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            raw = json.loads(text)
        except ValueError:
            warnings.warn(f"ignoring unparseable cache file {path}", stacklevel=2)
            return None
        if not isinstance(raw, dict):
            warnings.warn(f"ignoring malformed cache file {path}", stacklevel=2)
            return None
        payload = raw.get("payload")
        if (
            raw.get("kind") != kind
            or raw.get("n") != n
            or raw.get("schema_version") != SCHEMA_VERSION
            or not isinstance(payload, dict)
            or raw.get("checksum") != payload_checksum(payload)
            or not _possible(kind, n, payload)
        ):
            warnings.warn(f"ignoring stale or corrupt cache file {path}", stacklevel=2)
            return None
        return payload

    def store(self, entry: CacheEntry) -> bool:
        """Persist one entry; returns False (with a warning) when the
        directory cannot be written."""
        if self.directory is None:
            return False
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(entry.to_json())
                os.replace(tmp_name, self._path(entry.kind, entry.n))
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
