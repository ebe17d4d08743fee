"""Tests for the learned surrogate layer and the ``surrogate`` strategy.

Bottom-up: the :class:`RidgeModel` regressor (closed-form fit, bucketed
residual boost, checkpointable state); the :class:`ShortProbe` batched
dynamic features and the :class:`SurrogateFeaturizer` rows; the
``surrogate`` wrapper strategy (warm-up, learned pruning, ε
exploration, memo replay, cache warm-start, stats plumbing, state
round-trip); the cache ``iter_entries()`` bulk-read protocol; and the
acceptance experiment — equal-or-better best fitness than the plain GA
on the comparison seed at ≤ 50% of its simulated evaluations with mean
post-warm-up Spearman ≥ 0.5.
"""

import json
import math

import pytest

from repro.analysis.postprocess import run_statistics
from repro.core import GeneticEngine, OutputRecorder, make_rng
from repro.core.errors import ConfigError
from repro.core.output import read_stats
from repro.cpu.microarch import microarch_for
from repro.evaluation import EvaluationCache
from repro.evaluation.cache import CachedEvaluation
from repro.evaluation.probe import PROBE_FEATURE_NAMES, ShortProbe
from repro.fitness import DefaultFitness
from repro.isa import ArmAssembler
from repro.search import make_strategy
from repro.surrogate import RidgeModel, SurrogateFeaturizer

from .pruning_contract import (PruningWrapperContract, measurement,
                               strategy_config)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _strategy_config(tiny_library, tiny_template, **kwargs):
    return strategy_config("surrogate", tiny_library, tiny_template,
                           **kwargs)


def _arm_program(body, name="probe.s"):
    source = ("mov x10, #0\n.loop\nstart:\n" + body
              + "subs x0, x0, #1\nbne start\n.endloop\n")
    return ArmAssembler().assemble(source, name=name), source


# ---------------------------------------------------------------------------
# RidgeModel
# ---------------------------------------------------------------------------

class TestRidgeModel:
    def test_recovers_linear_relationship(self):
        rows = [{"a": float(i), "b": float(i % 3)} for i in range(12)]
        targets = [2.0 * r["a"] - r["b"] + 5.0 for r in rows]
        model = RidgeModel(l2=1e-6)
        model.fit(rows, targets)
        for row, target in zip(rows, targets):
            assert model.predict(row) == pytest.approx(target, abs=1e-3)

    def test_missing_features_default_to_zero(self):
        rows = [{"a": 1.0}, {"a": 2.0}, {"a": 3.0, "late": 1.0},
                {"a": 4.0}]
        model = RidgeModel()
        model.fit(rows, [1.0, 2.0, 3.0, 4.0])
        # 'late' appears in one row only; the others read as 0.0 and
        # prediction accepts rows without it.
        assert math.isfinite(model.predict({"a": 2.5}))

    def test_constant_columns_are_inert(self):
        rows = [{"a": float(i), "c": 7.0} for i in range(8)]
        model = RidgeModel(l2=1e-6)
        model.fit(rows, [float(i) for i in range(8)])
        with_const = model.predict({"a": 3.0, "c": 7.0})
        without = model.predict({"a": 3.0, "c": 123.0})
        assert with_const == pytest.approx(3.0, abs=1e-3)
        # a constant column carries no weight, so its value at
        # prediction time cannot move the output
        assert with_const == pytest.approx(without)

    def test_boost_corrects_systematic_bias(self):
        # A step function a linear model cannot represent: the bucketed
        # residual boost must reduce in-sample error.
        rows = [{"a": float(i)} for i in range(16)]
        targets = [0.0 if i < 8 else 10.0 for i in range(16)]

        def in_sample_error(model):
            model.fit(rows, targets)
            return sum((model.predict(r) - t) ** 2
                       for r, t in zip(rows, targets))

        plain = in_sample_error(RidgeModel(l2=1.0))
        boosted = in_sample_error(RidgeModel(l2=1.0, boost_buckets=2))
        assert boosted < plain

    def test_state_round_trip(self):
        model = RidgeModel(l2=0.5, boost_buckets=2)
        rows = [{"a": float(i), "b": float(i * i)} for i in range(10)]
        model.fit(rows, [3.0 * i for i in range(10)])
        clone = RidgeModel()
        clone.load_state(model.state_dict())
        probe = {"a": 4.5, "b": 19.0}
        assert clone.predict(probe) == model.predict(probe)
        assert clone.training_size == model.training_size

    def test_errors(self):
        with pytest.raises(ValueError, match="l2"):
            RidgeModel(l2=0.0)
        model = RidgeModel()
        with pytest.raises(ValueError, match="empty"):
            model.fit([], [])
        with pytest.raises(ValueError, match="one target per row"):
            model.fit([{"a": 1.0}], [])
        with pytest.raises(ValueError, match="before fit"):
            model.predict({"a": 1.0})


# ---------------------------------------------------------------------------
# ShortProbe + SurrogateFeaturizer
# ---------------------------------------------------------------------------

class TestShortProbe:
    def test_features_are_pure_functions_of_source(self):
        probe = ShortProbe("cortex_a15", cycles=400)
        p1, s1 = _arm_program("add x1, x2, x3\n", name="one.s")
        p2, s2 = _arm_program("mul x1, x2, x3\nmul x4, x1, x2\n",
                              name="two.s")
        together = probe.probe_batch([p1, p2], [s1, s2])
        alone = ShortProbe("cortex_a15", cycles=400).probe_batch([p1], [s1])
        assert together[0] == alone[0]
        reversed_order = probe.probe_batch([p2, p1], [s2, s1])
        assert reversed_order[1] == together[0]
        assert set(together[0]) == set(PROBE_FEATURE_NAMES)

    def test_length_mismatch_rejected(self):
        probe = ShortProbe("cortex_a15", cycles=400)
        program, source = _arm_program("add x1, x2, x3\n")
        with pytest.raises(ValueError, match="one source per program"):
            probe.probe_batch([program], [source, source])
        assert probe.probe_batch([], []) == []


class TestSurrogateFeaturizer:
    @staticmethod
    def _compiled(template, individuals):
        """The ``(source, Program)`` pairs the pruning core passes in."""
        pairs = []
        for individual in individuals:
            source = template.instantiate(individual.render_body())
            pairs.append((source, ArmAssembler().assemble(source)))
        return pairs

    def test_static_rows(self, tiny_config, tiny_template, rng):
        from repro.core.individual import random_individual
        featurizer = SurrogateFeaturizer(microarch_for("cortex_a15"))
        individuals = [random_individual(tiny_config.library, 6, rng,
                                         uid=i) for i in range(3)]
        rows = featurizer.featurize_batch(
            self._compiled(tiny_template, individuals))
        assert len(rows) == 3
        for row in rows:
            assert row is not None
            assert "loop_length" in row and "ipc_upper" in row
            assert not any(name.startswith("probe_") for name in row)
        # No Program (the source did not assemble): no row.
        assert featurizer.featurize_batch([("bogus", None)]) == [None]

    def test_probe_rows_merge_dynamic_features(self, tiny_config,
                                               tiny_template, rng):
        from repro.core.individual import random_individual
        featurizer = SurrogateFeaturizer(microarch_for("cortex_a15"),
                                         probe_cycles=400)
        assert featurizer.probes
        individual = random_individual(tiny_config.library, 6, rng, uid=0)
        row, = featurizer.featurize_batch(
            self._compiled(tiny_template, [individual]))
        for name in PROBE_FEATURE_NAMES:
            assert name in row


# ---------------------------------------------------------------------------
# cache bulk reads (warm-start protocol)
# ---------------------------------------------------------------------------

class TestCacheIterEntries:
    def test_iter_entries_bulk_reads_sorted(self):
        cache = EvaluationCache("fp")
        cache.put("source-b", CachedEvaluation((2.0,)))
        cache.put("source-a", CachedEvaluation((1.0,), compile_failed=True))
        entries = list(cache.iter_entries())
        assert len(entries) == 2
        assert [key for key, _ in entries] == sorted(k for k, _ in entries)
        assert dict(entries)[cache.key("source-a")].compile_failed
        # a snapshot is not a lookup: counters untouched
        assert cache.hits == 0 and cache.misses == 0


# ---------------------------------------------------------------------------
# the surrogate wrapper strategy
# ---------------------------------------------------------------------------

class TestSurrogateStrategy(PruningWrapperContract):
    STRATEGY = "surrogate"

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError, match="epsilon"):
            make_strategy("surrogate", {"epsilon": "1.5"})
        with pytest.raises(ConfigError, match="top_fraction"):
            make_strategy("surrogate", {"top_fraction": "0"})
        with pytest.raises(ConfigError, match="l2"):
            make_strategy("surrogate", {"l2": "0"})
        with pytest.raises(ConfigError, match="min_train"):
            make_strategy("surrogate", {"min_train": "0"})

    def test_can_wrap_static_rank(self, tiny_config):
        strategy = make_strategy("surrogate", {"base": "static_rank"})
        strategy.bind(tiny_config, make_rng(0),
                      iter(range(10_000)).__next__)
        assert strategy._base.name == "static_rank"

    def test_warmup_then_learned_pruning(self, tiny_library,
                                         tiny_template):
        config = _strategy_config(
            tiny_library, tiny_template, generations=5,
            params={"platform": "cortex_a15", "probe": "0",
                    "min_train": "8", "top_fraction": "0.5"})
        engine = GeneticEngine(config, measurement(), DefaultFitness())
        history = engine.run()
        gen0 = history.generations[0].surrogate
        # Warm-up: everything simulated, model untrained, no Spearman.
        assert gen0["simulated"] == 8 and gen0["pruned"] == 0
        assert gen0["spearman"] is None
        assert gen0["training_size"] == 8
        later = history.generations[1:]
        # Once trained (8 rows after generation 0) the model prunes.
        assert any(g.surrogate["pruned"] > 0 for g in later)
        sizes = [g.surrogate["training_size"] for g in history.generations]
        assert sizes == sorted(sizes)
        for stats in later:
            if stats.surrogate["pruned"]:
                assert stats.measured == stats.surrogate["simulated"]

    def test_epsilon_exploration_is_deterministic(self, tiny_library,
                                                  tiny_template):
        def explored_series():
            config = _strategy_config(
                tiny_library, tiny_template, generations=5,
                params={"epsilon": "0.5", "top_fraction": "0.25"})
            engine = GeneticEngine(config, measurement(),
                                   DefaultFitness())
            history = engine.run()
            return [g.surrogate["explored"]
                    for g in history.generations]

        first, second = explored_series(), explored_series()
        assert first == second

    def test_warm_start_from_cache_trains_without_measuring(
            self, tiny_library, tiny_template):
        cache = EvaluationCache("shared")

        def run():
            # top_fraction=1.0 keeps both runs' proposals identical
            # (nothing is ever pruned), isolating the warm-start path.
            config = _strategy_config(tiny_library, tiny_template,
                                      generations=4,
                                      params={"top_fraction": "1.0"})
            engine = GeneticEngine(config, measurement(),
                                   DefaultFitness(), cache=cache)
            return engine.run()

        first = run()
        assert len(cache) > 0
        second = run()
        # Every evaluation of the repeat run replays from the shared
        # cache: zero fresh measurements...
        assert sum(g.measured for g in second.generations) == 0
        # ...yet the model still trains from the replayed fitnesses,
        # and offspring found in the warm snapshot are reported.
        assert second.generations[-1].surrogate["training_size"] > 0
        assert any(g.surrogate["warm_hits"] > 0
                   for g in second.generations[1:])
        # the learned search trajectory is identical either way
        assert [g.best_fitness for g in first.generations] == \
            [g.best_fitness for g in second.generations]

    def test_stats_jsonl_round_trips_tolerant_readers(
            self, tiny_library, tiny_template, tmp_path):
        config = _strategy_config(tiny_library, tiny_template,
                                  generations=4)
        engine = GeneticEngine(config, measurement(), DefaultFitness(),
                               recorder=OutputRecorder(tmp_path / "run"))
        engine.run()
        stats_path = tmp_path / "run" / "stats.jsonl"
        rows = list(read_stats(stats_path))
        assert len(rows) == 4
        for row in rows:
            surrogate = row["surrogate"]
            assert surrogate["base"] == "genetic"
            assert {"simulated", "pruned", "replayed", "warm_hits",
                    "explored", "training_size",
                    "spearman"} <= set(surrogate)
        # a torn trailing line must not break the readers (S3)
        with open(stats_path, "a") as handle:
            handle.write('{"schema": 2, "truncat')
        with pytest.warns(RuntimeWarning, match="unparseable"):
            tolerant = list(read_stats(stats_path))
        assert [r["number"] for r in tolerant] == \
            [r["number"] for r in rows]
        statistics = run_statistics(tmp_path / "run")
        assert [r.get("surrogate") for r in statistics.stats_records] == \
            [r["surrogate"] for r in rows]


# ---------------------------------------------------------------------------
# acceptance: learned surrogate halves the simulation bill
# ---------------------------------------------------------------------------

class TestSurrogateAcceptance:
    def test_matches_genetic_at_half_the_simulations(self):
        from repro.experiments.search_comparison import search_comparison
        result = search_comparison(
            platform="cortex_a15", metric="power",
            strategies=("genetic", "surrogate(genetic)"))
        plain = result.best_fitness("genetic")
        learned = result.best_fitness("surrogate(genetic)")
        assert learned >= plain - 1e-9
        full = result.simulated_evaluations("genetic")
        pruned = result.simulated_evaluations("surrogate(genetic)")
        assert pruned <= 0.5 * full
        history = result.histories["surrogate(genetic)"]
        rhos = [g.surrogate["spearman"] for g in history.generations
                if g.surrogate["spearman"] is not None]
        assert rhos and sum(rhos) / len(rhos) >= 0.5
