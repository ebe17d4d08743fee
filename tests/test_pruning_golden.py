"""Golden trajectories of the two pruning wrappers.

``static_rank`` and ``surrogate`` share one prune-to-top-fraction core
(memo replay, ranking, ε-draw, placeholders, floor, checkpoint state).
These pins were recorded before the wrappers were folded onto that
core; any change to it that moves a search trajectory, the simulated
work per generation, the winner, or the checkpoint layout fails here.
Spearman figures are deliberately not pinned: they are telemetry only.
"""

import pytest

from repro.core import GAParameters, GeneticEngine, RunConfig
from repro.core.config import SearchParameters
from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.fitness import DefaultFitness
from repro.isa import arm_library, arm_template
from repro.measurement import PowerMeasurement

_STATIC_KEYS = ["base_state", "floor", "last_metrics", "memo",
                "pending_scores", "pruned_uids", "replayed", "score_memo",
                "selected"]
_SURROGATE_KEYS = ["base_state", "explored", "feature_memo", "floor",
                   "last_metrics", "memo", "model", "pending_features",
                   "pending_predictions", "pruned_uids", "replayed",
                   "selected", "train_rows", "train_targets",
                   "trained_keys", "warm_hits"]
_STATIC_RECORD = ["base", "metric", "platform", "pruned", "replayed",
                  "simulated", "spearman"]
_SURROGATE_RECORD = ["base", "explored", "platform", "probe", "pruned",
                     "replayed", "simulated", "spearman", "training_size",
                     "warm_hits"]

GOLDEN = {
    "static_rank(genetic)": dict(
        strategy="static_rank",
        params={"platform": "cortex_a15", "metric": "power"},
        series=[1.2513634541221852, 1.27902224959541, 1.27902224959541,
                1.3280030403884875, 1.3280030403884875,
                1.3469927703043592],
        measured=[10, 5, 5, 5, 4, 5],
        pruned=[0, 4, 4, 4, 3, 4],
        winner_uid=51,
        winner_measurements=[1.3469927703043592, 1.3491074877930214],
        state_keys=_STATIC_KEYS, base_state_keys=[],
        record_keys=_STATIC_RECORD),
    "surrogate(genetic)": dict(
        strategy="surrogate",
        params={"min_train": "6", "epsilon": "0.25"},
        series=[1.2513634541221852, 1.27902224959541, 1.3621192099039148,
                1.3621192099039148, 1.4306879095693104,
                1.456869096134402],
        measured=[10, 7, 5, 5, 3, 5],
        pruned=[0, 2, 4, 4, 3, 3],
        winner_uid=58,
        winner_measurements=[1.456869096134402, 1.4586636158295052],
        state_keys=_SURROGATE_KEYS, base_state_keys=[],
        record_keys=_SURROGATE_RECORD),
    "surrogate(static_rank)": dict(
        strategy="surrogate",
        params={"base": "static_rank", "min_train": "6"},
        series=[1.2513634541221852, 1.27902224959541, 1.3621192099039148,
                1.3621192099039148, 1.3681471262886566,
                1.4184277407161936],
        measured=[10, 4, 2, 3, 2, 2],
        pruned=[0, 1, 3, 2, 2, 2],
        winner_uid=51,
        winner_measurements=[1.4184277407161936, 1.4209431847988658],
        state_keys=_SURROGATE_KEYS, base_state_keys=_STATIC_KEYS,
        record_keys=_SURROGATE_RECORD),
}


def _run(strategy, params):
    ga = GAParameters(population_size=10, individual_size=10,
                      mutation_rate=0.1, generations=6, tournament_size=3,
                      seed=11)
    config = RunConfig(ga=ga, library=arm_library(),
                       template_text=arm_template())
    config.search = SearchParameters(strategy=strategy, params=dict(params))
    machine = SimulatedMachine("cortex_a15", seed=17, sim_cycles=600)
    target = SimulatedTarget(machine)
    target.connect()
    engine = GeneticEngine(config, PowerMeasurement(target,
                                                    {"samples": "2"}),
                           DefaultFitness())
    return engine, engine.run()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_pruning_wrapper_golden(case):
    golden = GOLDEN[case]
    engine, history = _run(golden["strategy"], golden["params"])
    generations = history.generations
    assert [g.best_fitness for g in generations] == golden["series"]
    assert [g.measured for g in generations] == golden["measured"]
    assert [g.surrogate["pruned"] for g in generations] == golden["pruned"]
    best = history.best_individual
    assert best.uid == golden["winner_uid"]
    assert list(best.measurements) == golden["winner_measurements"]
    state = engine.strategy.state_dict()
    assert sorted(state) == golden["state_keys"]
    assert sorted(state["base_state"]) == golden["base_state_keys"]
    assert all(sorted(g.surrogate) == golden["record_keys"]
               for g in generations)
