"""Sqlite-backed shared evaluation cache.

The JSON :class:`~repro.evaluation.cache.EvaluationCache` memoises one
process's evaluations; a *service* wants concurrent runs — often of
the same config with different strategies or seeds — to share
content-addressed entries.  This backend keeps the entries in the
result store's ``cache_entries`` table (same addressing:
``sha256(fingerprint ‖ rendered source)``) so every run against the
same platform/measurement setup reads and writes one pool.

Concurrency is delegated to sqlite's file locking: a ``put`` is a
single ``INSERT ... ON CONFLICT DO NOTHING`` — first writer wins, and
because evaluations are pure functions of the key (the determinism
contract of :mod:`repro.evaluation.pipeline`), racing writers carry
identical values, so "lost" duplicate writes lose nothing.  A ``get``
is a single ``SELECT``: hits are counted per run in memory and flushed
to the ``cache_activity`` table on :meth:`close`, so operators can see
exactly how much measurement each run saved.  (The ``cache_entries``
table keeps its legacy per-entry ``hits`` column so stores written by
earlier versions still open; nothing updates or reads it.)

The driver-side cache protocol (``get``/``put``/``hits``/``misses``)
is inherited from :class:`EvaluationCache`, so a
:class:`~repro.evaluation.evaluator.StagedEvaluator` uses either
interchangeably; only the storage moves from a dict to the database.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from ..core.errors import ConfigError
from ..evaluation.cache import CachedEvaluation, EvaluationCache
from .runstore import open_store_connection

__all__ = ["SharedEvaluationCache"]


class SharedEvaluationCache(EvaluationCache):
    """Content-addressed evaluation cache living in a store database.

    Parameters
    ----------
    path:
        The sqlite store file.  A bare path works standalone (the
        schema is created on first touch); pointing several runs —
        threads or whole processes — at one file is the intended use.
    fingerprint:
        Same meaning as for :class:`EvaluationCache`: entries are
        namespaced by it, so runs against different platforms or
        measurement setups never cross-pollinate.
    run_id:
        When set, this run's hit/miss totals are flushed into the
        ``cache_activity`` table on :meth:`close`.
    """

    def __init__(self, path: Union[str, Path], fingerprint: str = "",
                 run_id: Optional[str] = None) -> None:
        super().__init__(fingerprint)
        self.path = Path(path)
        self.run_id = run_id
        self._conn: Optional[sqlite3.Connection] = None
        self._flushed_hits = 0
        self._flushed_misses = 0

    # -- connection ---------------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """Lazy connect: safe to construct in one thread/process and
        use in another (the service builds the cache object before
        handing the run to a worker thread)."""
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = open_store_connection(self.path)
        return self._conn

    def close(self) -> None:
        self.flush_activity()
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # -- cache protocol -----------------------------------------------------

    def __len__(self) -> int:
        raw = self._connection().execute(
            "SELECT COUNT(*) FROM cache_entries WHERE fingerprint = ?",
            (self.fingerprint,)).fetchone()
        return int(raw[0])

    def get(self, source_text: str) -> Optional[CachedEvaluation]:
        key = self.key(source_text)
        conn = self._connection()
        raw = conn.execute(
            "SELECT measurements, compile_failed, screen_failed "
            "FROM cache_entries WHERE fingerprint = ? AND key = ?",
            (self.fingerprint, key)).fetchone()
        if raw is None:
            self.misses += 1
            return None
        self.hits += 1
        return CachedEvaluation(
            measurements=tuple(float(m) for m in json.loads(raw[0])),
            compile_failed=bool(raw[1]), screen_failed=bool(raw[2]))

    def put(self, source_text: str, entry: CachedEvaluation) -> None:
        conn = self._connection()
        with conn:
            conn.execute(
                "INSERT INTO cache_entries (fingerprint, key, "
                "measurements, compile_failed, screen_failed, created_by) "
                "VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT (fingerprint, key) DO NOTHING",
                (self.fingerprint, self.key(source_text),
                 json.dumps(list(entry.measurements)),
                 int(entry.compile_failed), int(entry.screen_failed),
                 self.run_id))

    def iter_entries(self) -> Iterator[Tuple[str, CachedEvaluation]]:
        """Bulk-read every entry under this fingerprint: one SELECT for
        the whole namespace, in sorted key order.

        The surrogate strategy's warm start snapshots the cache through
        this — with the per-``get`` protocol it would issue one SELECT
        per offspring.  Rows stream from a dedicated cursor, so
        interleaved ``get``/``put`` calls on the connection are safe;
        hit accounting is untouched (a snapshot is not a lookup).
        """
        cursor = self._connection().execute(
            "SELECT key, measurements, compile_failed, screen_failed "
            "FROM cache_entries WHERE fingerprint = ? ORDER BY key",
            (self.fingerprint,))
        for key, measurements, compile_failed, screen_failed in cursor:
            yield key, CachedEvaluation(
                measurements=tuple(float(m)
                                   for m in json.loads(measurements)),
                compile_failed=bool(compile_failed),
                screen_failed=bool(screen_failed))

    # -- accounting ---------------------------------------------------------

    def flush_activity(self) -> None:
        """Add this instance's hit/miss deltas to ``cache_activity``.

        Idempotent across calls: only the counts accumulated since the
        previous flush are written, so a mid-run flush plus the close
        flush never double-count.
        """
        if self.run_id is None or self._conn is None:
            return
        delta_hits = self.hits - self._flushed_hits
        delta_misses = self.misses - self._flushed_misses
        if not delta_hits and not delta_misses:
            return
        with self._conn:
            self._conn.execute(
                "INSERT INTO cache_activity (run_id, hits, misses) "
                "VALUES (?, ?, ?) ON CONFLICT (run_id) DO UPDATE SET "
                "hits = hits + excluded.hits, "
                "misses = misses + excluded.misses",
                (self.run_id, delta_hits, delta_misses))
        self._flushed_hits = self.hits
        self._flushed_misses = self.misses

    # -- JSON persistence does not apply ------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        raise ConfigError(
            "a SharedEvaluationCache persists through its database; "
            "there is no JSON file to save")

    @classmethod
    def load(cls, path: Union[str, Path],
             fingerprint: str = "") -> "EvaluationCache":
        raise ConfigError(
            "a SharedEvaluationCache persists through its database; "
            "open it with SharedEvaluationCache(path, fingerprint)")
