"""Tests for the sqlite result store (repro.store).

Covers the schema/version contract, the submit → claim → finish run
lifecycle (the database *is* the service's queue), per-run data
round-trips (generations, winners, events, checkpoints), the shared
evaluation cache backend, and the concurrency satellite: multiple
processes hammering one store file must lose no updates and reproduce
exactly the fitness a serial run computes.
"""

import multiprocessing
import sqlite3
from pathlib import Path

import pytest

from repro.core.config import GAParameters, RunConfig
from repro.core.engine import GeneticEngine
from repro.core.errors import ConfigError
from repro.core.instruction import InstructionLibrary, InstructionSpec
from repro.core.operand import ImmediateOperand, RegisterOperand
from repro.evaluation import CachedEvaluation
from repro.fitness.default_fitness import DefaultFitness
from repro.store import (RunStore, SCHEMA_VERSION, SharedEvaluationCache,
                         StoreRecorder, open_store_connection)


def _tiny_config(seed=99):
    """Self-contained clone of the conftest tiny fixtures — must be
    importable by spawned child processes, so no pytest fixtures."""
    operands = [
        RegisterOperand("dst", ["x1", "x2", "x3"]),
        RegisterOperand("src", ["x1", "x2", "x3", "x4"]),
        ImmediateOperand("imm", 0, 256, 8),
        RegisterOperand("base", ["x10"]),
    ]
    instructions = [
        InstructionSpec("ADD", ["dst", "src", "src"],
                        "add op1, op2, op3", "int_short"),
        InstructionSpec("LDR", ["dst", "base", "imm"],
                        "ldr op1, [op2, #op3]", "mem"),
        InstructionSpec("NOP", [], "nop", "nop"),
    ]
    library = InstructionLibrary(operands, instructions)
    ga = GAParameters(population_size=6, individual_size=8,
                      mutation_rate=0.1, generations=3,
                      tournament_size=3, seed=seed)
    template = ("mov x10, #4096\n.loop\nstart:\n#loop_code\n"
                "subs x0, x0, #1\nbne start\n.endloop\n")
    return RunConfig(ga=ga, library=library, template_text=template)


class CountingMeasurement:
    def measure(self, source_text, individual):
        score = float(sum(1 for i in individual.instructions
                          if i.name == "LDR"))
        return [score, score + 1.0]

    def measure_repeated(self, source_text, individual):
        return self.measure(source_text, individual)


class TestSchema:
    def test_fresh_store_stamped(self, tmp_path):
        conn = open_store_connection(tmp_path / "gest.sqlite")
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        assert version == SCHEMA_VERSION
        mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        conn.close()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "future.sqlite"
        conn = sqlite3.connect(str(path))
        conn.execute("PRAGMA user_version = 99")
        conn.commit()
        conn.close()
        with pytest.raises(ConfigError, match="schema version 99"):
            open_store_connection(path)

    def test_reopen_existing_store(self, tmp_path):
        path = tmp_path / "gest.sqlite"
        with RunStore(path) as store:
            store.submit_run(_tiny_config(), "cortex_a15")
        with RunStore(path) as store:
            assert len(store.list_runs()) == 1


class TestRunLifecycle:
    def test_submit_assigns_sequential_ids(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            first = store.submit_run(_tiny_config(), "cortex_a15")
            second = store.submit_run(_tiny_config(), "xgene2")
            assert first == "run-000001"
            assert second == "run-000002"

    def test_submit_claim_finish(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            run_id = store.submit_run(_tiny_config(), "cortex_a15",
                                      strategy="genetic", seed=7,
                                      generations=2)
            row = store.get_run(run_id)
            assert row.status == "queued"
            assert row.strategy == "genetic"
            assert row.seed == 7
            assert row.generations == 2
            assert row.submitted_at is not None

            assert store.claim_next() == run_id
            assert store.get_run(run_id).status == "running"
            assert store.claim_next() is None

            store.finish_run(run_id, best_uid=12, best_fitness=3.5)
            row = store.get_run(run_id)
            assert row.status == "finished"
            assert row.best_uid == 12
            assert row.best_fitness == 3.5
            assert row.finished_at is not None

    def test_claim_order_is_submission_order(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            ids = [store.submit_run(_tiny_config(), "cortex_a15")
                   for _ in range(3)]
            assert [store.claim_next() for _ in range(3)] == ids

    def test_fail_run_records_error(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            run_id = store.submit_run(_tiny_config(), "cortex_a15")
            store.claim_next()
            store.fail_run(run_id, "ValueError: boom")
            row = store.get_run(run_id)
            assert row.status == "failed"
            assert "boom" in row.error

    def test_requeue_interrupted(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            run_id = store.submit_run(_tiny_config(), "cortex_a15")
            store.claim_next()
            assert store.requeue_interrupted() == [run_id]
            assert store.get_run(run_id).status == "queued"
            assert store.requeue_interrupted() == []

    def test_cancel_queued_run_outright(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            run_id = store.submit_run(_tiny_config(), "cortex_a15")
            store.request_cancel(run_id)
            assert store.get_run(run_id).status == "cancelled"
            assert store.claim_next() is None

    def test_cancel_running_run_sets_flag_only(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            run_id = store.submit_run(_tiny_config(), "cortex_a15")
            store.claim_next()
            assert store.cancel_requested(run_id) is False
            store.request_cancel(run_id)
            assert store.get_run(run_id).status == "running"
            assert store.cancel_requested(run_id) is True

    def test_unknown_run_id_raises(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(ConfigError, match="no run"):
                store.get_run("run-999999")
            with pytest.raises(ConfigError, match="no run"):
                store.load_config("run-999999")

    def test_list_runs_filter_validates_status(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            store.submit_run(_tiny_config(), "cortex_a15")
            assert len(store.list_runs(status="queued")) == 1
            assert store.list_runs(status="finished") == []
            with pytest.raises(ConfigError, match="unknown run status"):
                store.list_runs(status="bogus")

    def test_config_round_trip(self, tmp_path):
        config = _tiny_config(seed=5)
        with RunStore(tmp_path / "s.sqlite") as store:
            run_id = store.submit_run(config, "cortex_a15")
            loaded = store.load_config(run_id)
        assert loaded.ga.seed == 5
        assert loaded.ga.population_size == config.ga.population_size
        assert loaded.template_text == config.template_text
        assert len(loaded.library.instructions) == \
            len(config.library.instructions)

    def test_submit_seed_override(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            run_id = store.submit_run(_tiny_config(seed=99), "cortex_a15",
                                      seed=123)
            assert store.get_run(run_id).seed == 123
            assert store.load_config(run_id).ga.seed == 123


class TestRunData:
    def test_generation_upsert_idempotent(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            store.record_generation("run-x", {"number": 0,
                                              "best_fitness": 1.0})
            store.record_generation("run-x", {"number": 0,
                                              "best_fitness": 2.0})
            store.record_generation("run-x", {"number": 1,
                                              "best_fitness": 3.0})
            records = store.generations("run-x")
            assert [r["number"] for r in records] == [0, 1]
            assert records[0]["best_fitness"] == 2.0

    def test_winner_round_trip(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            assert store.winner("run-x") is None
            store.record_winner("run-x", uid=4, generation=1, fitness=2.5,
                                measurements=[2.5, 3.0], source="nop\n")
            winner = store.winner("run-x")
            assert winner["uid"] == 4
            assert winner["measurements"] == [2.5, 3.0]
            assert winner["source"] == "nop\n"

    def test_event_log_sequences_per_run(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            assert store.record_event("run-a", "run_started", {}) == 0
            assert store.record_event("run-a", "generation_completed",
                                      {"number": 0}) == 1
            assert store.record_event("run-b", "run_started", {}) == 0
            events = store.events("run-a")
            assert [(seq, kind) for seq, kind, _ in events] == \
                [(0, "run_started"), (1, "generation_completed")]
            assert store.events("run-a", after_seq=0)[0][0] == 1

    def test_checkpoint_round_trip(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            assert store.load_checkpoint("run-x") is None
            store.save_checkpoint("run-x", 0, b"first")
            store.save_checkpoint("run-x", 1, b"second")
            generation, payload = store.load_checkpoint("run-x")
            assert generation == 1
            assert payload == b"second"


class TestStoreRecorder:
    def test_full_run_lands_in_store(self, tmp_path):
        config = _tiny_config()
        store_path = tmp_path / "s.sqlite"
        with RunStore(store_path) as store:
            recorder = StoreRecorder(store)
            engine = GeneticEngine(config, CountingMeasurement(),
                                   DefaultFitness(), recorder=recorder,
                                   checkpoint_path=tmp_path / "cp.bin")
            history = engine.run()

            records = store.generations(engine.run_id)
            assert [r["number"] for r in records] == [0, 1, 2]
            winner = store.winner(engine.run_id)
            assert winner["fitness"] == history.best_individual.fitness
            generation, payload = store.load_checkpoint(engine.run_id)
            assert generation == 2
            assert payload == (tmp_path / "cp.bin").read_bytes()
            kinds = [kind for _, kind, _ in store.events(engine.run_id)]
            assert kinds[0] == "run_started"
            assert kinds[-1] == "run_finished"
            assert kinds.count("generation_completed") == 3


class TestSharedEvaluationCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = SharedEvaluationCache(tmp_path / "s.sqlite", "fp")
        entry = CachedEvaluation((1.5, 2.0), compile_failed=False,
                                 screen_failed=True)
        cache.put("some source", entry)
        assert len(cache) == 1
        got = cache.get("some source")
        assert got == entry
        assert cache.get("other source") is None
        assert cache.hits == 1
        assert cache.misses == 1
        cache.close()

    def test_hit_writes_nothing(self, tmp_path):
        cache = SharedEvaluationCache(tmp_path / "s.sqlite", "fp",
                                      run_id="run-000001")
        cache.put("src", CachedEvaluation((1.0,)))
        conn = cache._connection()
        before = conn.total_changes
        assert cache.get("src") == CachedEvaluation((1.0,))
        assert cache.hits == 1
        assert conn.total_changes == before
        cache.close()

    def test_fingerprint_isolation(self, tmp_path):
        path = tmp_path / "s.sqlite"
        a = SharedEvaluationCache(path, "fp-a")
        b = SharedEvaluationCache(path, "fp-b")
        a.put("src", CachedEvaluation((1.0,)))
        assert b.get("src") is None
        assert len(b) == 0
        a.close()
        b.close()

    def test_iter_entries_bulk_read(self, tmp_path):
        path = tmp_path / "s.sqlite"
        cache = SharedEvaluationCache(path, "fp")
        sources = ["src a", "src b", "src c"]
        for index, source in enumerate(sources):
            cache.put(source, CachedEvaluation(
                (float(index),), compile_failed=index == 2))
        other = SharedEvaluationCache(path, "fp-other")
        other.put("src a", CachedEvaluation((99.0,)))

        entries = dict(cache.iter_entries())
        # every entry of this fingerprint, none of the other's
        assert len(entries) == 3
        for index, source in enumerate(sources):
            got = entries[cache.key(source)]
            assert got.measurements == (float(index),)
            assert got.compile_failed is (index == 2)
        # keys come back sorted (deterministic snapshot order)
        assert [k for k, _ in cache.iter_entries()] == \
            sorted(entries)
        # a bulk read is not a lookup: hit/miss counters untouched
        assert cache.hits == 0 and cache.misses == 0
        cache.close()
        other.close()

    def test_first_writer_wins(self, tmp_path):
        path = tmp_path / "s.sqlite"
        a = SharedEvaluationCache(path, "fp", run_id="run-a")
        b = SharedEvaluationCache(path, "fp", run_id="run-b")
        a.put("src", CachedEvaluation((1.0,)))
        b.put("src", CachedEvaluation((1.0,)))
        assert len(a) == 1
        assert b.get("src").measurements == (1.0,)
        a.close()
        b.close()

    def test_activity_flushed_per_run(self, tmp_path):
        path = tmp_path / "s.sqlite"
        cache = SharedEvaluationCache(path, "fp", run_id="run-000001")
        cache.put("src", CachedEvaluation((1.0,)))
        cache.get("src")
        cache.get("missing")
        cache.flush_activity()
        cache.get("src")
        cache.close()  # flushes only the post-flush delta
        with RunStore(path) as store:
            assert store.cache_activity("run-000001") == (2, 1)
            assert store.cache_activity("run-999999") == (0, 0)

    def test_json_persistence_refused(self, tmp_path):
        cache = SharedEvaluationCache(tmp_path / "s.sqlite", "fp")
        with pytest.raises(ConfigError, match="database"):
            cache.save(tmp_path / "cache.json")
        with pytest.raises(ConfigError, match="database"):
            SharedEvaluationCache.load(tmp_path / "cache.json")


def _hammer_worker(store_path, worker, count, out_path):
    """Child process: write and read back `count` shared entries."""
    cache = SharedEvaluationCache(store_path, "fp",
                                  run_id=f"run-{worker:06d}")
    for i in range(count):
        cache.put(f"source {i}", CachedEvaluation((float(i), float(i) + 1)))
    bad = 0
    for i in range(count):
        entry = cache.get(f"source {i}")
        if entry is None or entry.measurements != (float(i), float(i) + 1):
            bad += 1
    cache.close()
    Path(out_path).write_text(str(bad))


def _engine_worker(store_path, run_id, out_path):
    """Child process: full tiny GA run against the shared cache."""
    cache = SharedEvaluationCache(store_path, "fp", run_id=run_id)
    engine = GeneticEngine(_tiny_config(), CountingMeasurement(),
                           DefaultFitness(), cache=cache)
    history = engine.run()
    cache.close()
    Path(out_path).write_text(repr(history.best_individual.fitness))


class TestConcurrentAccess:
    """The satellite: processes hammering one sqlite cache file."""

    def test_two_processes_no_lost_updates(self, tmp_path):
        store_path = tmp_path / "s.sqlite"
        count = 40
        ctx = multiprocessing.get_context("spawn")
        outs = [tmp_path / f"out-{i}" for i in range(2)]
        procs = [ctx.Process(target=_hammer_worker,
                             args=(store_path, i, count, outs[i]))
                 for i in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        assert [out.read_text() for out in outs] == ["0", "0"]
        cache = SharedEvaluationCache(store_path, "fp")
        assert len(cache) == count  # every entry exactly once
        cache.close()

    def test_concurrent_runs_match_serial_fitness(self, tmp_path):
        serial = GeneticEngine(_tiny_config(), CountingMeasurement(),
                               DefaultFitness()).run()
        expected = serial.best_individual.fitness

        store_path = tmp_path / "s.sqlite"
        ctx = multiprocessing.get_context("spawn")
        outs = [tmp_path / f"fit-{i}" for i in range(2)]
        procs = [ctx.Process(target=_engine_worker,
                             args=(store_path, f"run-{i:06d}", outs[i]))
                 for i in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        assert [out.read_text() for out in outs] == [repr(expected)] * 2
