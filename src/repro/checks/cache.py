"""Incremental result cache for the two-phase linter.

Two layers, two keys:

* **Summaries** are keyed by the file's *content hash* alone — a
  phase-1 summary depends on nothing but the file's own bytes. An
  mtime+size fast path skips even reading unchanged files.
* **Findings** are keyed by content hash **plus an environment
  hash** of every file's position-independent
  :meth:`~repro.checks.dataflow.ModuleSummary.identity_facts` (and
  the call-graph facts derived from them). Cross-file rules (FC003's
  return summaries, FC009/FC010 reachability, FC004's vocabulary)
  therefore invalidate exactly when a *fact* changes — a pure
  line-shift edit in one file leaves every other file's cached
  findings valid.

The cache file is plain JSON (default ``.repro-checks-cache.json``,
gitignored); a missing, corrupt, or version-skewed file degrades to a
cold run, never an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["CheckCache", "DEFAULT_CACHE_PATH", "content_digest"]

#: Bump when summary shape, finding shape, or keying changes.
CACHE_VERSION = 5

DEFAULT_CACHE_PATH = ".repro-checks-cache.json"

#: Keep the cache from growing without bound across branch switches:
#: entries for files no longer seen are dropped at save time.
_FindingDict = Dict[str, Any]


def content_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CheckCache:
    """Load-once / save-once JSON cache used by one linter run."""

    def __init__(self, path: pathlib.Path) -> None:
        self.path = path
        self.files: Dict[str, Dict[str, Any]] = {}
        self.summaries: Dict[str, Dict[str, Any]] = {}
        self.results: Dict[str, Dict[str, List[_FindingDict]]] = {}
        self.hits = 0
        self.misses = 0
        self._seen_hashes: set = set()
        self._seen_result_keys: set = set()
        self._load()

    # -- persistence -------------------------------------------------

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if (
            not isinstance(data, dict)
            or data.get("version") != CACHE_VERSION
        ):
            return
        files = data.get("files")
        summaries = data.get("summaries")
        results = data.get("results")
        if isinstance(files, dict):
            self.files = files
        if isinstance(summaries, dict):
            self.summaries = summaries
        if isinstance(results, dict):
            self.results = results

    def save(self) -> None:
        """Write back, pruning entries the run did not touch."""
        payload = {
            "version": CACHE_VERSION,
            "files": {
                key: entry
                for key, entry in self.files.items()
                if entry.get("hash") in self._seen_hashes
            },
            "summaries": {
                digest: summary
                for digest, summary in self.summaries.items()
                if digest in self._seen_hashes
            },
            "results": {
                key: value
                for key, value in self.results.items()
                if key in self._seen_result_keys
            },
        }
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            tmp.write_text(json.dumps(payload))
            os.replace(tmp, self.path)
        except OSError:
            # A read-only checkout just stays cold; never fail the lint.
            try:
                tmp.unlink()
            except OSError:
                pass

    # -- layer 1: content hashing with a stat fast path --------------

    def file_hash(
        self, path: pathlib.Path
    ) -> Tuple[str, Optional[str]]:
        """``(content_hash, source_or_None)`` for ``path``.

        Returns the source text only when the file actually had to be
        read (stat mismatch); raises ``OSError`` like ``read_text``.
        """
        key = str(path.resolve())
        stat = path.stat()
        entry = self.files.get(key)
        if (
            entry is not None
            and entry.get("mtime_ns") == stat.st_mtime_ns
            and entry.get("size") == stat.st_size
            and isinstance(entry.get("hash"), str)
        ):
            digest: str = entry["hash"]
            self._seen_hashes.add(digest)
            return digest, None
        source = path.read_text()
        digest = content_digest(source.encode("utf-8", "surrogatepass"))
        self.files[key] = {
            "mtime_ns": stat.st_mtime_ns,
            "size": stat.st_size,
            "hash": digest,
        }
        self._seen_hashes.add(digest)
        return digest, source

    # -- layer 2: summaries by content hash --------------------------

    def summary(self, digest: str) -> Optional[Dict[str, Any]]:
        return self.summaries.get(digest)

    def store_summary(
        self, digest: str, summary: Dict[str, Any]
    ) -> None:
        self.summaries[digest] = summary

    # -- layer 3: findings by content hash + environment hash --------

    def findings(
        self, digest: str, env_hash: str
    ) -> Optional[Dict[str, List[_FindingDict]]]:
        key = f"{digest}:{env_hash}"
        cached = self.results.get(key)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        self._seen_result_keys.add(key)
        return cached

    def store_findings(
        self,
        digest: str,
        env_hash: str,
        findings: List[_FindingDict],
        suppressed: List[_FindingDict],
    ) -> None:
        key = f"{digest}:{env_hash}"
        self.results[key] = {
            "findings": findings,
            "suppressed": suppressed,
        }
        self._seen_result_keys.add(key)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
