"""The contract every pruning wrapper strategy passes, written once.

``static_rank`` and ``surrogate`` are two scorers on one
prune-to-top-fraction core (:mod:`repro.search.pruning`).  The tests
below check the core's behaviour through each of them: a test class
per scorer inherits :class:`PruningWrapperContract` and names its
strategy in ``STRATEGY``, and keeps only its scorer-specific tests.
"""

import pytest

from repro.core import GAParameters, GeneticEngine, RunConfig, make_rng, \
    random_individual
from repro.core.config import SearchParameters
from repro.core.errors import ConfigError
from repro.core.population import Population
from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.fitness import DefaultFitness
from repro.measurement import PowerMeasurement
from repro.search import STRATEGIES, make_strategy


def strategy_config(strategy, tiny_library, tiny_template, generations=4,
                    seed=3, params=None):
    """A tiny GA config (population 8) searching under ``strategy``."""
    ga = GAParameters(population_size=8, individual_size=8,
                      mutation_rate=0.1, generations=generations,
                      tournament_size=3, seed=seed)
    config = RunConfig(ga=ga, library=tiny_library,
                       template_text=tiny_template.text)
    config.search = SearchParameters(strategy=strategy,
                                     params=dict(params or {}))
    return config


def measurement(seed=17):
    machine = SimulatedMachine("cortex_a15", seed=seed, sim_cycles=600)
    target = SimulatedTarget(machine)
    target.connect()
    return PowerMeasurement(target, {"samples": "2"})


class PruningWrapperContract:
    """Shared wrapper tests; subclasses set :attr:`STRATEGY`."""

    STRATEGY = ""

    def _run(self, tiny_library, tiny_template, **kwargs):
        config = strategy_config(self.STRATEGY, tiny_library,
                                 tiny_template, **kwargs)
        engine = GeneticEngine(config, measurement(), DefaultFitness())
        return engine, engine.run()

    def _bound(self, config):
        strategy = make_strategy(self.STRATEGY, None)
        strategy.bind(config, make_rng(0), iter(range(10_000)).__next__)
        return strategy

    def test_registered(self):
        assert self.STRATEGY in STRATEGIES

    def test_defines_contract_methods_itself(self):
        # perfbench's span tracer times only the contract methods a
        # registered strategy class defines itself; inherited ones
        # would fall into core.unattributed_s.
        contract = {"initial_population", "next_population", "observe"}
        assert contract <= set(vars(STRATEGIES.get(self.STRATEGY)))

    def test_rejects_self_wrap(self, tiny_config):
        strategy = make_strategy(self.STRATEGY, {"base": self.STRATEGY})
        with pytest.raises(ConfigError, match="cannot wrap itself"):
            strategy.bind(tiny_config, make_rng(0), lambda: 0)

    def test_platform_inferred_from_template_syntax(self, tiny_config):
        assert self._bound(tiny_config)._arch.name == "cortex_a15"

    def test_rejects_measurement_without_simulated_target(
            self, tiny_library, tiny_template):
        class LdrCounter:
            def measure(self, source_text, individual):
                return [float(sum(1 for i in individual.instructions
                                  if i.name == "LDR"))]

            def measure_repeated(self, source_text, individual):
                return self.measure(source_text, individual)

        config = strategy_config(self.STRATEGY, tiny_library,
                                 tiny_template)
        # The scorer compiles on the run's simulated machine; without
        # one the engine refuses before anything is evaluated.
        with pytest.raises(ConfigError, match="simulated target"):
            GeneticEngine(config, LdrCounter(), DefaultFitness())

    def test_placeholders_never_win(self, tiny_library, tiny_template):
        engine, history = self._run(tiny_library, tiny_template,
                                    generations=5,
                                    params={"top_fraction": "0.34"})
        # The run's best individual always comes from a real simulation.
        assert history.best_individual.measurements
        assert all(g.best_fitness >= 0.0 for g in history.generations)
        final = history.final_population
        pruned = [i for i in final if i.uid in engine.strategy._pruned_uids]
        measured = [i for i in final if i.measurements]
        assert any(g.surrogate["pruned"] for g in history.generations)
        floor = engine.strategy._floor
        assert all(floor - 1.0 < i.fitness < floor for i in pruned)
        if pruned and measured:
            assert max(i.fitness for i in pruned) < \
                min(i.fitness for i in measured)

    def test_memo_replays_previously_simulated_genomes(
            self, tiny_library, tiny_template):
        _, history = self._run(tiny_library, tiny_template, generations=5)
        # Elitist replacement re-proposes the incumbent every
        # generation; the memo must satisfy it without re-measuring.
        assert any(g.surrogate["replayed"] > 0
                   for g in history.generations[1:])

    def test_spearman_skips_unranked_predictions(self, tiny_config, rng):
        strategy = self._bound(tiny_config)
        individuals = [random_individual(tiny_config.library, 8, rng,
                                         uid=uid) for uid in range(4)]
        for fitness, individual in enumerate(individuals):
            individual.record_evaluation([float(fitness)], float(fitness))
        # -inf marks an unassemblable candidate: it ranks last but says
        # nothing about the scorer's ordering of real candidates.
        strategy._pending = dict(zip(range(4),
                                     (float("-inf"), 3.0, 1.0, 2.0)))
        strategy.observe(Population(individuals, number=0))
        assert strategy.generation_metrics(0)["spearman"] == \
            pytest.approx(-0.5)

    def test_state_round_trip(self, tiny_library, tiny_template):
        engine, _ = self._run(tiny_library, tiny_template)
        engine.strategy._floor = -0.25
        state = engine.strategy.state_dict()
        assert state["memo"] and state["last_metrics"]
        fresh = self._bound(engine.config)
        fresh.load_state(state)
        assert fresh.state_dict() == state
