"""Sqlite-backed run store (GeST-as-a-service persistence).

One sqlite file owns everything a long-running generation service
needs to remember: submitted runs and their lifecycle status, every
generation's stats record, the per-run winner source, the latest
resume checkpoint, a JSONL-style event log for ``gest tail``, and the
shared evaluation-cache tables
(:class:`~repro.store.sharedcache.SharedEvaluationCache`).

Design points, in the spirit of DAVOS's sqlite result handling:

* **WAL mode** — readers (``gest runs`` / ``gest tail``) never block
  the writing workers, and N worker threads/processes serialize their
  writes through sqlite's own file locking with a generous busy
  timeout rather than a hand-rolled lock file.
* **Schema versioned** — ``PRAGMA user_version`` stamps the schema;
  opening a store written by an incompatible build fails loudly
  instead of corrupting it.
* **Queue in the database** — submission is an INSERT, claiming is an
  atomic UPDATE inside one transaction, so any number of ``gest
  submit`` processes can feed any number of orchestrator workers with
  no other coordination channel.

Wall-clock timestamps recorded here are operator bookkeeping
(submitted/started/finished), never replayed into run state — runs
stay bit-reproducible, the ledger around them does not need to be.
"""

from __future__ import annotations

import json
import pickle
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

from ..core.config import RunConfig, config_to_xml
from ..core.errors import ConfigError
from ..core.events import (CheckpointWritten, GenerationCompleted,
                           IndividualEvaluated, RunFinished, RunRecorder,
                           RunStarted)

__all__ = ["SCHEMA_VERSION", "RunStore", "RunRow", "StoreRecorder",
           "ensure_schema", "open_store_connection"]

#: ``PRAGMA user_version`` of the store schema this build reads/writes.
SCHEMA_VERSION = 1

#: Run lifecycle states, in rough order.
RUN_STATUSES = ("queued", "running", "finished", "failed", "cancelled")

_TABLES = """
CREATE TABLE IF NOT EXISTS runs (
    id               INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id           TEXT UNIQUE NOT NULL,
    status           TEXT NOT NULL,
    platform         TEXT NOT NULL,
    strategy         TEXT,
    seed             INTEGER,
    generations      INTEGER,
    config_xml       TEXT,
    config_blob      BLOB,
    submitted_at     REAL,
    started_at       REAL,
    finished_at      REAL,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    best_fitness     REAL,
    best_uid         INTEGER,
    error            TEXT
);
CREATE TABLE IF NOT EXISTS generations (
    run_id       TEXT NOT NULL,
    number       INTEGER NOT NULL,
    best_fitness REAL,
    mean_fitness REAL,
    best_uid     INTEGER,
    stats_json   TEXT NOT NULL,
    PRIMARY KEY (run_id, number)
);
CREATE TABLE IF NOT EXISTS winners (
    run_id            TEXT PRIMARY KEY,
    uid               INTEGER,
    generation        INTEGER,
    fitness           REAL,
    measurements_json TEXT,
    source            TEXT
);
CREATE TABLE IF NOT EXISTS checkpoints (
    run_id     TEXT PRIMARY KEY,
    generation INTEGER NOT NULL,
    payload    BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS events (
    run_id  TEXT NOT NULL,
    seq     INTEGER NOT NULL,
    type    TEXT NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (run_id, seq)
);
CREATE TABLE IF NOT EXISTS cache_entries (
    fingerprint    TEXT NOT NULL,
    key            TEXT NOT NULL,
    measurements   TEXT NOT NULL,
    compile_failed INTEGER NOT NULL DEFAULT 0,
    screen_failed  INTEGER NOT NULL DEFAULT 0,
    created_by     TEXT,
    hits           INTEGER NOT NULL DEFAULT 0,  -- legacy, never updated
    PRIMARY KEY (fingerprint, key)
);
CREATE TABLE IF NOT EXISTS cache_activity (
    run_id TEXT PRIMARY KEY,
    hits   INTEGER NOT NULL DEFAULT 0,
    misses INTEGER NOT NULL DEFAULT 0
);
"""


def _now() -> float:
    """Operator-facing wall-clock timestamp (never replayed)."""
    return time.time()  # staticcheck: disable=SC404


def ensure_schema(connection: sqlite3.Connection) -> None:
    """Create the store schema on a fresh database, or verify it.

    Raises :class:`ConfigError` when the file carries a different
    schema version — the store never silently migrates or overwrites.
    """
    version = connection.execute("PRAGMA user_version").fetchone()[0]
    if version == 0:
        connection.executescript(_TABLES)
        connection.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        connection.commit()
    elif version != SCHEMA_VERSION:
        raise ConfigError(
            f"result store has schema version {version}; this build "
            f"reads version {SCHEMA_VERSION} — use a matching build or "
            "start a fresh store file")


def open_store_connection(path: Union[str, Path]) -> sqlite3.Connection:
    """Open (and initialize) a store database: WAL, busy timeout."""
    # check_same_thread=False: handles are used by one thread at a time
    # but may be *created* on a different one (thread-pool dispatch);
    # concurrent access is still serialized through sqlite's locking.
    connection = sqlite3.connect(str(path), timeout=30.0,
                                 check_same_thread=False)
    connection.execute("PRAGMA journal_mode=WAL")
    connection.execute("PRAGMA busy_timeout=30000")
    connection.execute("PRAGMA synchronous=NORMAL")
    ensure_schema(connection)
    return connection


@dataclass(frozen=True)
class RunRow:
    """One run's ledger entry."""

    run_id: str
    status: str
    platform: str
    strategy: Optional[str]
    seed: Optional[int]
    generations: Optional[int]
    config_xml: Optional[str]
    submitted_at: Optional[float]
    started_at: Optional[float]
    finished_at: Optional[float]
    cancel_requested: bool
    best_fitness: Optional[float]
    best_uid: Optional[int]
    error: Optional[str]


_RUN_COLUMNS = ("run_id, status, platform, strategy, seed, generations, "
                "config_xml, submitted_at, started_at, finished_at, "
                "cancel_requested, best_fitness, best_uid, error")


class RunStore:
    """Handle on one store database.

    A store object is cheap and **single-threaded**: every thread or
    process that touches the database constructs its own.  Concurrency
    is sqlite's problem (WAL + busy timeout), not this class's.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._conn: Optional[sqlite3.Connection] = None

    # -- connection ---------------------------------------------------------

    def connection(self) -> sqlite3.Connection:
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = open_store_connection(self.path)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- submission / queue -------------------------------------------------

    def submit_run(self, config: RunConfig, platform: str,
                   strategy: Optional[str] = None,
                   seed: Optional[int] = None,
                   generations: Optional[int] = None) -> str:
        """Enqueue a run; returns its store-assigned ``run-NNNNNN`` id.

        The parsed configuration is pickled whole (library, template,
        parameters) so the executing worker needs no access to the
        submitting user's files; the XML rendering rides along for
        human inspection via ``gest runs``.
        """
        if seed is not None:
            config.ga.seed = seed
        conn = self.connection()
        blob = pickle.dumps(config, protocol=4)
        xml = config_to_xml(config, template_filename="template.s",
                            results_dir="results")
        with conn:
            cursor = conn.execute(
                "INSERT INTO runs (run_id, status, platform, strategy, "
                "seed, generations, config_xml, config_blob, submitted_at) "
                "VALUES ('', 'queued', ?, ?, ?, ?, ?, ?, ?)",
                (platform, strategy, config.ga.seed, generations, xml,
                 blob, _now()))
            run_id = f"run-{cursor.lastrowid:06d}"
            conn.execute("UPDATE runs SET run_id = ? WHERE id = ?",
                         (run_id, cursor.lastrowid))
        return run_id

    def claim_next(self) -> Optional[str]:
        """Atomically move the oldest queued run to ``running``.

        Safe against racing claimers: the SELECT and UPDATE share one
        immediate transaction, so each queued run is handed to exactly
        one worker.
        """
        conn = self.connection()
        try:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "SELECT run_id FROM runs WHERE status = 'queued' "
                "ORDER BY id LIMIT 1").fetchone()
            if row is None:
                conn.execute("ROLLBACK")
                return None
            conn.execute(
                "UPDATE runs SET status = 'running', started_at = ? "
                "WHERE run_id = ?", (_now(), row[0]))
            conn.execute("COMMIT")
        except sqlite3.Error:
            conn.execute("ROLLBACK")
            raise
        return row[0]

    def requeue_interrupted(self) -> List[str]:
        """Crash recovery: put ``running`` leftovers back in the queue.

        A run that was mid-flight when the previous orchestrator died
        still holds status ``running``; re-queue it so the next worker
        resumes it from its stored checkpoint (or from scratch when no
        checkpoint was reached).
        """
        conn = self.connection()
        with conn:
            rows = conn.execute(
                "SELECT run_id FROM runs WHERE status = 'running' "
                "ORDER BY id").fetchall()
            conn.execute(
                "UPDATE runs SET status = 'queued' "
                "WHERE status = 'running'")
        return [row[0] for row in rows]

    # -- run rows -----------------------------------------------------------

    def _row(self, raw: Tuple) -> RunRow:
        return RunRow(run_id=raw[0], status=raw[1], platform=raw[2],
                      strategy=raw[3], seed=raw[4], generations=raw[5],
                      config_xml=raw[6], submitted_at=raw[7],
                      started_at=raw[8], finished_at=raw[9],
                      cancel_requested=bool(raw[10]), best_fitness=raw[11],
                      best_uid=raw[12], error=raw[13])

    def get_run(self, run_id: str) -> RunRow:
        raw = self.connection().execute(
            f"SELECT {_RUN_COLUMNS} FROM runs WHERE run_id = ?",
            (run_id,)).fetchone()
        if raw is None:
            raise ConfigError(f"no run {run_id!r} in store {self.path}")
        return self._row(raw)

    def list_runs(self, status: Optional[str] = None) -> List[RunRow]:
        if status is not None and status not in RUN_STATUSES:
            raise ConfigError(
                f"unknown run status {status!r}; expected one of "
                f"{', '.join(RUN_STATUSES)}")
        conn = self.connection()
        if status is None:
            rows = conn.execute(
                f"SELECT {_RUN_COLUMNS} FROM runs ORDER BY id").fetchall()
        else:
            rows = conn.execute(
                f"SELECT {_RUN_COLUMNS} FROM runs WHERE status = ? "
                "ORDER BY id", (status,)).fetchall()
        return [self._row(raw) for raw in rows]

    def load_config(self, run_id: str) -> RunConfig:
        raw = self.connection().execute(
            "SELECT config_blob FROM runs WHERE run_id = ?",
            (run_id,)).fetchone()
        if raw is None:
            raise ConfigError(f"no run {run_id!r} in store {self.path}")
        if raw[0] is None:
            raise ConfigError(f"run {run_id!r} carries no configuration")
        return pickle.loads(raw[0])

    # -- lifecycle ----------------------------------------------------------

    def finish_run(self, run_id: str, best_uid: Optional[int],
                   best_fitness: Optional[float],
                   cancelled: bool = False) -> None:
        status = "cancelled" if cancelled else "finished"
        with self.connection() as conn:
            conn.execute(
                "UPDATE runs SET status = ?, finished_at = ?, "
                "best_uid = ?, best_fitness = ? WHERE run_id = ?",
                (status, _now(), best_uid, best_fitness, run_id))

    def fail_run(self, run_id: str, error: str) -> None:
        with self.connection() as conn:
            conn.execute(
                "UPDATE runs SET status = 'failed', finished_at = ?, "
                "error = ? WHERE run_id = ?", (_now(), error, run_id))

    def request_cancel(self, run_id: str) -> None:
        """Flag a run for cooperative cancellation.

        A queued run is cancelled outright; a running one is stopped by
        the engine's ``stop_check`` at the next generation boundary.
        """
        self.get_run(run_id)  # loud error for unknown ids
        with self.connection() as conn:
            conn.execute(
                "UPDATE runs SET cancel_requested = 1 WHERE run_id = ?",
                (run_id,))
            conn.execute(
                "UPDATE runs SET status = 'cancelled', finished_at = ? "
                "WHERE run_id = ? AND status = 'queued'",
                (_now(), run_id))

    def cancel_requested(self, run_id: str) -> bool:
        raw = self.connection().execute(
            "SELECT cancel_requested FROM runs WHERE run_id = ?",
            (run_id,)).fetchone()
        return bool(raw and raw[0])

    # -- per-generation data ------------------------------------------------

    def record_generation(self, run_id: str, stats: dict) -> None:
        """Upsert one generation's stats record (idempotent on resume)."""
        with self.connection() as conn:
            conn.execute(
                "INSERT INTO generations (run_id, number, best_fitness, "
                "mean_fitness, best_uid, stats_json) "
                "VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT (run_id, number) DO UPDATE SET "
                "best_fitness = excluded.best_fitness, "
                "mean_fitness = excluded.mean_fitness, "
                "best_uid = excluded.best_uid, "
                "stats_json = excluded.stats_json",
                (run_id, stats.get("number"), stats.get("best_fitness"),
                 stats.get("mean_fitness"), stats.get("best_uid"),
                 json.dumps(stats, sort_keys=True)))

    def generations(self, run_id: str) -> List[dict]:
        rows = self.connection().execute(
            "SELECT stats_json FROM generations WHERE run_id = ? "
            "ORDER BY number", (run_id,)).fetchall()
        return [json.loads(raw[0]) for raw in rows]

    # -- winners ------------------------------------------------------------

    def record_winner(self, run_id: str, uid: int, generation: int,
                      fitness: float, measurements: List[float],
                      source: str) -> None:
        with self.connection() as conn:
            conn.execute(
                "INSERT INTO winners (run_id, uid, generation, fitness, "
                "measurements_json, source) VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT (run_id) DO UPDATE SET "
                "uid = excluded.uid, generation = excluded.generation, "
                "fitness = excluded.fitness, "
                "measurements_json = excluded.measurements_json, "
                "source = excluded.source",
                (run_id, uid, generation, fitness,
                 json.dumps(list(measurements)), source))

    def winner(self, run_id: str) -> Optional[dict]:
        raw = self.connection().execute(
            "SELECT uid, generation, fitness, measurements_json, source "
            "FROM winners WHERE run_id = ?", (run_id,)).fetchone()
        if raw is None:
            return None
        return {"uid": raw[0], "generation": raw[1], "fitness": raw[2],
                "measurements": json.loads(raw[3]), "source": raw[4]}

    # -- checkpoints --------------------------------------------------------

    def save_checkpoint(self, run_id: str, generation: int,
                        payload: bytes) -> None:
        with self.connection() as conn:
            conn.execute(
                "INSERT INTO checkpoints (run_id, generation, payload) "
                "VALUES (?, ?, ?) ON CONFLICT (run_id) DO UPDATE SET "
                "generation = excluded.generation, "
                "payload = excluded.payload",
                (run_id, generation, payload))

    def load_checkpoint(self, run_id: str) -> Optional[Tuple[int, bytes]]:
        raw = self.connection().execute(
            "SELECT generation, payload FROM checkpoints "
            "WHERE run_id = ?", (run_id,)).fetchone()
        if raw is None:
            return None
        return int(raw[0]), raw[1]

    # -- event log ----------------------------------------------------------

    def record_event(self, run_id: str, event_type: str,
                     payload: dict) -> int:
        """Append one event; returns its per-run sequence number."""
        conn = self.connection()
        with conn:
            conn.execute(
                "INSERT INTO events (run_id, seq, type, payload) VALUES "
                "(?, COALESCE((SELECT MAX(seq) + 1 FROM events "
                "WHERE run_id = ?), 0), ?, ?)",
                (run_id, run_id, event_type,
                 json.dumps(payload, sort_keys=True)))
            seq = conn.execute(
                "SELECT MAX(seq) FROM events WHERE run_id = ?",
                (run_id,)).fetchone()[0]
        return int(seq)

    def events(self, run_id: str,
               after_seq: int = -1) -> List[Tuple[int, str, dict]]:
        rows = self.connection().execute(
            "SELECT seq, type, payload FROM events WHERE run_id = ? "
            "AND seq > ? ORDER BY seq", (run_id, after_seq)).fetchall()
        return [(int(raw[0]), raw[1], json.loads(raw[2])) for raw in rows]

    # -- cache activity (see sharedcache.py) --------------------------------

    def add_cache_activity(self, run_id: str, hits: int,
                           misses: int) -> None:
        with self.connection() as conn:
            conn.execute(
                "INSERT INTO cache_activity (run_id, hits, misses) "
                "VALUES (?, ?, ?) ON CONFLICT (run_id) DO UPDATE SET "
                "hits = hits + excluded.hits, "
                "misses = misses + excluded.misses",
                (run_id, hits, misses))

    def cache_activity(self, run_id: str) -> Tuple[int, int]:
        raw = self.connection().execute(
            "SELECT hits, misses FROM cache_activity WHERE run_id = ?",
            (run_id,)).fetchone()
        if raw is None:
            return 0, 0
        return int(raw[0]), int(raw[1])


class StoreRecorder(RunRecorder):
    """Engine-event subscriber that persists a run into a
    :class:`RunStore`.

    One recorder serves one executing run; it opens its own store
    handle so it can live on the worker thread that drives the engine.
    The mapping:

    * ``run_started``        → run row refresh + event
    * ``individual_evaluated`` → winner upsert when the run's best improves
    * ``generation_completed`` → generation row + event
    * ``checkpoint_written`` → checkpoint blob upsert + event
    * ``run_finished``       → event (final status is the executor's
      call — it knows whether the run finished, failed or was
      cancelled)
    """

    def __init__(self, store: Union[RunStore, str, Path]) -> None:
        self.store = store if isinstance(store, RunStore) \
            else RunStore(store)
        self._winner_fitness: Optional[float] = None

    def close(self) -> None:
        self.store.close()

    # -- hooks --------------------------------------------------------------

    def on_run_started(self, event: RunStarted) -> None:
        self.store.record_event(event.run_id, "run_started", {
            "strategy": event.strategy,
            "seed": event.seed,
            "resumed": event.resumed,
        })

    def on_individual_evaluated(self, event: IndividualEvaluated) -> None:
        individual = event.individual
        if individual.fitness is None:
            return
        if self._winner_fitness is None:
            stored = self.store.winner(event.run_id)
            self._winner_fitness = stored["fitness"] if stored \
                else float("-inf")
        if individual.fitness > self._winner_fitness:
            self._winner_fitness = individual.fitness
            self.store.record_winner(
                event.run_id, uid=individual.uid,
                generation=individual.generation,
                fitness=individual.fitness,
                measurements=list(individual.measurements),
                source=event.source)

    def on_generation_completed(self, event: GenerationCompleted) -> None:
        self.store.record_generation(event.run_id, event.stats)
        self.store.record_event(event.run_id, "generation_completed",
                                event.stats)

    def on_checkpoint_written(self, event: CheckpointWritten) -> None:
        payload = Path(event.path).read_bytes()
        self.store.save_checkpoint(event.run_id, event.generation, payload)
        self.store.record_event(event.run_id, "checkpoint_written", {
            "generation": event.generation,
            "bytes": len(payload),
        })

    def on_run_finished(self, event: RunFinished) -> None:
        best = event.best
        self.store.record_event(event.run_id, "run_finished", {
            "generations": event.generations,
            "cancelled": event.cancelled,
            "best_uid": best.uid if best is not None else None,
            "best_fitness": best.fitness if best is not None else None,
        })
