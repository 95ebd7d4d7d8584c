"""The content-addressed disk cache behind the engine.

Layout (one directory per job, one JSON file per key)::

    <cache_dir>/
        v1/
            certificate/
                 5f1d...c0.json     # {"job": ..., "params": ..., "result": ...}
            sizes.row/
                 ...

Every entry is self-describing: alongside the result it records the job
name, the parameters and the code fingerprint that produced it, so a
cache directory can be audited with nothing but ``jq``.  An entry file
is canonical JSON (sorted keys, no whitespace) with the result written
as the text :func:`encode_result` gives, which the engine makes once per
job and also counts for a run record's ``result_bytes``.  Writes are atomic
(``os.replace`` of a same-directory temp file), which makes the cache
safe under concurrent writers — the losing writer simply overwrites with
identical bytes.

The default location is ``$REPRO_CACHE_DIR`` if set, else
``~/.cache/repro``; every CLI entry point accepts ``--cache-dir``.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
from collections.abc import Mapping
from pathlib import Path
from typing import Any

__all__ = ["DiskCache", "default_cache_dir", "encode_result", "CACHE_FORMAT"]

#: Bumped when the on-disk entry format changes; old entries are ignored.
CACHE_FORMAT = "v1"

_SEPARATORS = (",", ":")

#: An object key that an int, float, bool or ``None`` dict key encodes to.
#: ``sort_keys`` orders such keys by value (``2`` before ``10``), but they
#: decode as strings, which sort as text (``"10"`` before ``"2"``).  Inside
#: a string a ``"`` is always escaped, so this only ever matches a key.
_NON_STR_KEY = re.compile(r'[{,]"(?:-?[0-9][-+.0-9eE]*|true|false|null|NaN|-?Infinity)":')


def encode_result(result: Any) -> str:
    """The canonical JSON text of a job result: sorted keys, no whitespace.

    The text is its own re-encoding: decoding it and encoding the value
    again with the same settings gives the same text, so a result reads
    the same whether it was just computed, read from the cache, or
    decoded in another process.  Raises TypeError or ValueError when
    ``result`` is not JSON data.

    >>> encode_result({"b": (1, 2.5), "a": None})
    '{"a":null,"b":[1,2.5]}'
    >>> encode_result({10: "x", 2: "y"})
    '{"10":"x","2":"y"}'
    """
    text = json.dumps(result, sort_keys=True, separators=_SEPARATORS)
    if _NON_STR_KEY.search(text):
        # A key that is a string in JSON but was not one in Python (or a
        # string key that looks like a number): sort as the text decodes.
        text = json.dumps(json.loads(text), sort_keys=True, separators=_SEPARATORS)
    return text


def _entry_head(job_name: Any, params: Any, fingerprint: Any) -> str:
    """An entry file's text up to its result: the other fields, then ``"result":``."""
    head = json.dumps(
        {
            "fingerprint": fingerprint,
            "format": CACHE_FORMAT,
            "job": job_name,
            "params": params,
        },
        sort_keys=True,
        separators=_SEPARATORS,
    )
    # "result" sorts after every other key, so the result closes the object.
    return f'{head[:-1]},"result":'


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro"


class DiskCache:
    """A content-addressed JSON store for job results.

    >>> import tempfile
    >>> cache = DiskCache(tempfile.mkdtemp())
    >>> cache.get("certificate", "0" * 64) is None
    True
    >>> result = {"margin": 16640}
    >>> cache.put("certificate", "0" * 64, {"n": 16}, "fp", result, encode_result(result))
    >>> cache.get("certificate", "0" * 64)["result"]["margin"]
    16640
    """

    def __init__(self, directory: str | os.PathLike[str] | None = None) -> None:
        self._root = Path(directory) if directory is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        # The serve broker shares one cache across connection threads; the
        # counters are read-modify-write, so they take a lock.
        self._counter_lock = threading.Lock()

    def _count(self, hit: bool) -> None:
        with self._counter_lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    @property
    def root(self) -> Path:
        """The cache directory (entries live under ``root / CACHE_FORMAT``)."""
        return self._root

    def _path(self, job_name: str, key: str) -> Path:
        safe_job = "".join(c if c.isalnum() or c in "._-" else "_" for c in job_name)
        return self._root / CACHE_FORMAT / safe_job / f"{key}.json"

    def get(self, job_name: str, key: str) -> dict[str, Any] | None:
        """Return the stored entry (with its metadata) or ``None``.

        The entry also carries ``result_bytes``, the length of the
        result's stored text, which is the ``result_bytes`` of the miss
        that stored it.  Unreadable or corrupt entries count as misses
        and are ignored.
        """
        path = self._path(job_name, key)
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            entry = json.loads(text)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            self._count(hit=False)
            return None
        if not isinstance(entry, dict) or "result" not in entry:
            self._count(hit=False)
            return None
        head = _entry_head(entry.get("job"), entry.get("params"), entry.get("fingerprint"))
        if text.startswith(head) and text.endswith("}"):
            entry["result_bytes"] = len(text) - len(head) - 1
        else:  # a head that does not re-encode as stored (int-keyed params, a hand edit)
            entry["result_bytes"] = len(encode_result(entry["result"]))
        self._count(hit=True)
        return entry

    def put(
        self,
        job_name: str,
        key: str,
        params: Mapping[str, Any],
        fingerprint: str,
        result: Any,
        encoded: str,
    ) -> None:
        """Atomically persist ``result`` under ``key``.

        ``encoded`` is ``encode_result(result)``, which the engine makes
        once per job; the file embeds that text as is, so this layer
        never encodes a result itself (``result`` is for layers that
        keep the value, such as :class:`~repro.serve.hot.HotLRU`).
        Storage failures (read-only or full disk) are swallowed: a cache
        that cannot write degrades to recomputation, it must never fail
        the computation itself.
        """
        try:
            self._put(job_name, key, params, fingerprint, encoded)
        except OSError:
            pass

    def _put(
        self,
        job_name: str,
        key: str,
        params: Mapping[str, Any],
        fingerprint: str,
        encoded: str,
    ) -> None:
        path = self._path(job_name, key)
        payload = f"{_entry_head(job_name, dict(params), fingerprint)}{encoded}}}"
        try:  # a job's directory is made by the first write that misses it
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            try:
                data = memoryview(payload.encode("utf-8"))
                while data:
                    data = data[os.write(fd, data) :]
            finally:
                os.close(fd)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def stats(self, count_only: bool = False) -> dict[str, Any]:
        """Entry counts (and total bytes) per job, plus this process's hit/miss.

        ``count_only=True`` skips the per-file ``stat()`` pass and reports
        ``bytes: None`` — one directory listing per job instead of a full
        tree walk, which is what keeps a server's ``/stats`` endpoint cheap
        under load.  The returned mapping has the same keys either way.
        """
        per_job: dict[str, dict[str, Any]] = {}
        base = self._root / CACHE_FORMAT
        if base.is_dir():
            for job_dir in sorted(base.iterdir()):
                if not job_dir.is_dir():
                    continue
                entries = [p for p in job_dir.glob("*.json")]
                per_job[job_dir.name] = {
                    "entries": len(entries),
                    "bytes": None
                    if count_only
                    else sum(p.stat().st_size for p in entries),
                }
        return {
            "dir": str(self._root),
            "jobs": per_job,
            "entries": sum(j["entries"] for j in per_job.values()),
            "bytes": None
            if count_only
            else sum(j["bytes"] for j in per_job.values()),
            "session_hits": self.hits,
            "session_misses": self.misses,
        }

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed."""
        base = self._root / CACHE_FORMAT
        removed = 0
        if base.is_dir():
            for job_dir in base.iterdir():
                if not job_dir.is_dir():
                    continue
                for entry in job_dir.glob("*.json"):
                    entry.unlink()
                    removed += 1
                try:
                    job_dir.rmdir()
                except OSError:
                    pass
        return removed


class NullCache(DiskCache):
    """A cache that stores nothing (``--no-cache``)."""

    def __init__(self) -> None:
        super().__init__(directory=os.devnull)

    def get(self, job_name: str, key: str) -> dict[str, Any] | None:
        self._count(hit=False)
        return None

    def put(self, job_name, key, params, fingerprint, result, encoded) -> None:
        return None

    def stats(self, count_only: bool = False) -> dict[str, Any]:
        return {
            "dir": None,
            "jobs": {},
            "entries": 0,
            "bytes": None if count_only else 0,
            "session_hits": self.hits,
            "session_misses": self.misses,
        }

    def clear(self) -> int:
        return 0


__all__.append("NullCache")
