"""Tests for the paper's Section IV/VII extensions: cache-miss
measurement, LLC stress search, shared-memory power, current-spectrum
analysis, C-level optimisation and checkpoint/resume."""

import numpy as np
import pytest

from repro.core import (GAParameters, GeneticEngine, RunConfig,
                        random_individual)
from repro.core.config import SearchParameters
from repro.core.errors import AssemblyError, ConfigError, MeasurementError
from repro.core.rng import make_rng
from repro.cpu import MemoryHierarchy, SimulatedMachine, SimulatedTarget
from repro.experiments import GAScale
from repro.fitness import DefaultFitness
from repro.isa import (arm_cache_stress_library, arm_library,
                       arm_shared_template, arm_template, clike_library,
                       clike_template, compile_clike)
from repro.measurement import CacheMissMeasurement, PowerMeasurement
from repro.staticcheck.screen import StaticScreen


# ---------------------------------------------------------------------------
# cache-miss measurement & catalog
# ---------------------------------------------------------------------------

class TestCacheMissMeasurement:
    def _target(self):
        machine = SimulatedMachine("xgene2", seed=2, sim_cycles=800,
                                   hierarchy=MemoryHierarchy())
        t = SimulatedTarget(machine)
        t.connect()
        return t

    def test_measures_streaming_higher_than_resident(self):
        meas = CacheMissMeasurement(self._target(), {"samples": "2"})
        streaming = (".loop\nldr x7, [x10, #0]\nadd x10, x10, #4096\n"
                     ".endloop\n")
        resident = (".loop\nldr x7, [x10, #0]\nldr x8, [x10, #64]\n"
                    ".endloop\n")
        assert meas.measure(streaming, None)[0] > \
            meas.measure(resident, None)[0] * 10

    def test_requires_hierarchy(self, a15_machine):
        target = SimulatedTarget(a15_machine)
        target.connect()
        meas = CacheMissMeasurement(target, {"samples": "2"})
        with pytest.raises(MeasurementError, match="MemoryHierarchy"):
            meas.measure(".loop\nnop\n.endloop\n", None)

    def test_returns_five_values(self):
        meas = CacheMissMeasurement(self._target(), {"samples": "2"})
        values = meas.measure(".loop\nldr x7, [x10, #0]\n.endloop\n", None)
        assert len(values) == 5

    def test_cache_stress_catalog_assembles(self, rng):
        lib = arm_cache_stress_library()
        from repro.isa import ArmAssembler
        asm = ArmAssembler()
        for name in lib.names:
            spec = lib.spec(name)
            for _ in range(8):
                asm.assemble(spec.render(lib.sample_values(spec, rng)))

    def test_cache_stress_ga_learns_to_miss(self):
        """A short GA on the cache catalog must discover striding."""
        machine = SimulatedMachine("xgene2", environment="os", seed=3,
                                   sim_cycles=800,
                                   hierarchy=MemoryHierarchy())
        target = SimulatedTarget(machine)
        target.connect()
        ga = GAParameters(population_size=10, individual_size=16,
                          mutation_rate=0.08, generations=8, seed=3)
        config = RunConfig(ga=ga, library=arm_cache_stress_library(),
                           template_text=arm_template())
        engine = GeneticEngine(
            config, CacheMissMeasurement(target, {"samples": "2"}),
            DefaultFitness())
        history = engine.run()
        series = history.best_fitness_series()
        assert series[-1] > series[0]
        assert history.best_individual.fitness > 50   # misses/kinstr
        advances = sum(1 for i in history.best_individual.instructions
                       if i.name == "ADVANCE")
        assert advances >= 1


# ---------------------------------------------------------------------------
# shared-memory power
# ---------------------------------------------------------------------------

class TestSharedMemoryPower:
    def _run(self, template_src, body, cores=8):
        machine = SimulatedMachine("xgene2", seed=4, sim_cycles=800)
        from repro.core.template import Template
        source = Template(template_src).instantiate(body)
        program = machine.compile(source)
        return machine, machine.run(program, cores=cores), program

    BODY = "\n".join(["ldr x7, [x11, #8]", "str x1, [x11, #16]",
                      "ldr x8, [x10, #0]", "vmul v0, v1, v2"] * 5)

    def test_shared_template_adds_noc_power(self):
        _, private, _ = self._run(arm_template(), self.BODY)
        _, shared, _ = self._run(arm_shared_template(), self.BODY)
        assert private.noc_power_w == 0.0
        assert shared.noc_power_w > 0.5
        assert shared.chip_power_w > private.chip_power_w

    def test_shared_fraction_counts_bases(self):
        machine, _, program = self._run(arm_shared_template(), self.BODY)
        # 2 of 3 memory instructions use the shared base x11.
        assert machine.shared_access_fraction(program) == \
            pytest.approx(2 / 3)

    def test_noc_power_scales_with_cores(self):
        _, one, _ = self._run(arm_shared_template(), self.BODY, cores=1)
        _, eight, _ = self._run(arm_shared_template(), self.BODY, cores=8)
        assert eight.noc_power_w > one.noc_power_w * 6

    def test_platform_without_noc_is_unaffected(self):
        machine = SimulatedMachine("cortex_a15", seed=4, sim_cycles=600)
        from repro.core.template import Template
        source = Template(arm_shared_template()).instantiate(self.BODY)
        result = machine.run_source(source, cores=2)
        assert result.noc_power_w == 0.0

    def test_no_memory_instructions_no_noc(self):
        _, result, _ = self._run(arm_shared_template(),
                                 "add x1, x2, x3\nvmul v0, v1, v2")
        assert result.noc_power_w == 0.0


# ---------------------------------------------------------------------------
# current spectrum
# ---------------------------------------------------------------------------

class TestSpectrum:
    def test_pure_tone_detected(self):
        from repro.analysis import current_spectrum
        fs = 3.1e9
        n = 4096
        f0 = 100e6
        t = np.arange(n) / fs
        current = 10.0 + 2.0 * np.sin(2 * np.pi * f0 * t)
        spectrum = current_spectrum(current, fs, warmup_fraction=0.0)
        assert spectrum.dominant_frequency_hz() == pytest.approx(
            f0, rel=0.02)
        assert spectrum.dc_a == pytest.approx(10.0, abs=0.01)
        assert spectrum.amplitude_near(f0, 10e6) == pytest.approx(
            2.0, rel=0.1)

    def test_flat_current_has_no_ac(self):
        from repro.analysis import current_spectrum
        spectrum = current_spectrum(np.full(2048, 5.0), 1e9)
        assert spectrum.total_ac_amplitude() < 1e-9

    def test_resonance_band_ratio(self):
        from repro.analysis import current_spectrum, resonance_band_ratio
        fs = 3.1e9
        t = np.arange(4096) / fs
        current = 10.0 + 2.0 * np.sin(2 * np.pi * 100e6 * t) \
            + 0.2 * np.sin(2 * np.pi * 500e6 * t)
        spectrum = current_spectrum(current, fs, warmup_fraction=0.0)
        band, fraction = resonance_band_ratio(spectrum, 100e6)
        assert band == pytest.approx(2.0, rel=0.1)
        assert fraction > 0.9

    def test_input_validation(self):
        from repro.analysis import current_spectrum
        from repro.core.errors import SimulationError
        with pytest.raises(SimulationError):
            current_spectrum(np.array([1.0, 2.0]), 1e9)
        with pytest.raises(SimulationError):
            current_spectrum(np.ones(64), 0.0)


# ---------------------------------------------------------------------------
# C-level optimisation
# ---------------------------------------------------------------------------

class TestClike:
    def test_declarations_lower_to_movs(self):
        asm = compile_clike("long a = 5;\nloop {\na = a + b;\n}\n")
        assert "mov x1, #5" in asm
        assert "add x1, x1, x2" in asm

    def test_loop_block_becomes_measured_region(self):
        asm = compile_clike("long i = 10;\nloop {\na = b + c;\n}\n")
        assert ".loop" in asm and ".endloop" in asm
        assert "subs x0, x0, #1" in asm
        assert "bne __clike_loop__" in asm

    def test_float_ops_and_fma(self):
        asm = compile_clike(
            "loop {\nf0 = f1 * f2;\nf3 = fma(f4, f5);\n}\n")
        assert "fmul v0, v1, v2" in asm
        assert "fmla v3, v4, v5" in asm

    def test_memory_access(self):
        asm = compile_clike("loop {\na = p[16];\nq[8] = b;\n}\n")
        assert "ldr x1, [x10, #16]" in asm
        assert "str x2, [x11, #8]" in asm

    def test_compiled_output_assembles_and_runs(self, a15_machine):
        source = compile_clike(clike_template(1000).replace(
            "#loop_code", "f0 = f1 * f2;\na = p[8];\nb = a ^ c;"))
        result = a15_machine.run_source(source)
        assert result.ipc > 0

    def test_unknown_variable_rejected(self):
        with pytest.raises(AssemblyError, match="unknown variable"):
            compile_clike("loop {\nz = a + b;\n}\n")

    def test_mixed_types_rejected(self):
        with pytest.raises(AssemblyError, match="mixed"):
            compile_clike("loop {\nf0 = a + f1;\n}\n")

    def test_unparseable_statement_rejected(self):
        with pytest.raises(AssemblyError, match="cannot parse"):
            compile_clike("loop {\nwhile (1) {}\n}\n")

    def test_missing_loop_rejected(self):
        with pytest.raises(AssemblyError, match="no loop"):
            compile_clike("long a = 1;\n")

    def test_catalog_statements_all_compile(self, rng):
        lib = clike_library()
        for name in lib.names:
            spec = lib.spec(name)
            for _ in range(8):
                statement = spec.render(lib.sample_values(spec, rng))
                compile_clike(f"loop {{\n{statement}\n}}\n")

    @pytest.mark.parametrize("strategy, screened", [
        ("genetic", True), ("static_rank", False), ("surrogate", True)])
    def test_c_level_ga_improves(self, strategy, screened):
        machine = SimulatedMachine("cortex_a15", seed=5, sim_cycles=800)
        target = SimulatedTarget(machine, translator=compile_clike)
        target.connect()
        ga = GAParameters(population_size=10, individual_size=15,
                          mutation_rate=0.08, generations=8, seed=5)
        config = RunConfig(ga=ga, library=clike_library(),
                           template_text=clike_template())
        pruning = strategy != "genetic"
        config.search = SearchParameters(
            strategy=strategy,
            params={"platform": "cortex_a15"} if pruning else {})
        engine = GeneticEngine(
            config, PowerMeasurement(target, {"samples": "3"}),
            DefaultFitness(),
            screen=StaticScreen.for_machine(machine) if screened else None)
        history = engine.run()
        series = history.best_fitness_series()
        assert series[-1] > series[0]
        # The screen and the scorers see the translated program.
        assert all(g.screen_failures == 0 for g in history.generations)
        if pruning:
            assert any(g.surrogate["spearman"] is not None
                       for g in history.generations)


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------

class _LdrCounter:
    def measure(self, source_text, individual):
        return [float(sum(1 for i in individual.instructions
                          if i.name == "LDR"))]

    def measure_repeated(self, source_text, individual):
        return self.measure(source_text, individual)


class TestCheckpointResume:
    def test_resume_reproduces_uninterrupted_run(self, tiny_library,
                                                 tiny_template, tmp_path):
        def config():
            ga = GAParameters(population_size=8, individual_size=10,
                              mutation_rate=0.1, generations=8,
                              tournament_size=3, seed=77)
            return RunConfig(ga=ga, library=tiny_library,
                             template_text=tiny_template.text)

        # Reference: one uninterrupted run.
        full = GeneticEngine(config(), _LdrCounter(),
                             DefaultFitness()).run()

        # Interrupted run: 4 generations, checkpointing...
        checkpoint = tmp_path / "run.ckpt"
        first = GeneticEngine(config(), _LdrCounter(), DefaultFitness(),
                              checkpoint_path=checkpoint)
        first.run(generations=4)
        assert checkpoint.exists()

        # ...then resume to the full 8.
        resumed_engine = GeneticEngine.resume(
            config(), _LdrCounter(), DefaultFitness(), checkpoint)
        resumed = resumed_engine.run(generations=8)

        assert len(resumed.generations) == 4   # generations 4..7
        assert resumed.best_individual.genome_key() == \
            full.best_individual.genome_key()
        assert resumed.generations[-1].best_fitness == \
            full.generations[-1].best_fitness

    def test_resume_missing_file(self, tiny_config, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            GeneticEngine.resume(tiny_config, _LdrCounter(),
                                 DefaultFitness(), tmp_path / "none.ckpt")

    def test_resume_garbage_file(self, tiny_config, tmp_path):
        import pickle
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(ConfigError, match="not a checkpoint"):
            GeneticEngine.resume(tiny_config, _LdrCounter(),
                                 DefaultFitness(), bad)

    def test_resume_unsupported_version(self, tiny_config, tmp_path):
        import pickle
        checkpoint = tmp_path / "v.ckpt"
        GeneticEngine(tiny_config, _LdrCounter(), DefaultFitness(),
                      checkpoint_path=checkpoint).run(generations=1)
        payload = pickle.loads(checkpoint.read_bytes())
        payload["version"] = 99
        checkpoint.write_bytes(pickle.dumps(payload))
        with pytest.raises(ConfigError,
                           match="unsupported version 99"):
            GeneticEngine.resume(tiny_config, _LdrCounter(),
                                 DefaultFitness(), checkpoint)

    def test_resume_missing_version_field(self, tiny_config, tmp_path):
        import pickle
        checkpoint = tmp_path / "v.ckpt"
        GeneticEngine(tiny_config, _LdrCounter(), DefaultFitness(),
                      checkpoint_path=checkpoint).run(generations=1)
        payload = pickle.loads(checkpoint.read_bytes())
        del payload["version"]
        checkpoint.write_bytes(pickle.dumps(payload))
        with pytest.raises(ConfigError,
                           match="unsupported version None"):
            GeneticEngine.resume(tiny_config, _LdrCounter(),
                                 DefaultFitness(), checkpoint)

    def test_resume_past_the_end_rejected(self, tiny_library,
                                          tiny_template, tmp_path):
        ga = GAParameters(population_size=6, individual_size=8,
                          mutation_rate=0.1, generations=3, seed=1)
        config = RunConfig(ga=ga, library=tiny_library,
                           template_text=tiny_template.text)
        checkpoint = tmp_path / "c.ckpt"
        GeneticEngine(config, _LdrCounter(), DefaultFitness(),
                      checkpoint_path=checkpoint).run()
        resumed = GeneticEngine.resume(config, _LdrCounter(),
                                       DefaultFitness(), checkpoint)
        with pytest.raises(ConfigError, match="already covers"):
            resumed.run()

    def test_checkpoint_without_path_rejected(self, tiny_config):
        engine = GeneticEngine(tiny_config, _LdrCounter(),
                               DefaultFitness())
        from repro.core.population import Population
        with pytest.raises(ConfigError, match="no checkpoint path"):
            engine.save_checkpoint(Population([random_individual(
                tiny_config.library, 4, make_rng(0))]))


# ---------------------------------------------------------------------------
# frequency scaling & shmoo
# ---------------------------------------------------------------------------

class TestFrequencyScaling:
    def test_at_frequency_returns_reclocked_machine(self, athlon_machine):
        faster = athlon_machine.at_frequency(3.4e9)
        assert faster.arch.frequency_hz == 3.4e9
        assert faster.nominal_frequency_hz == \
            athlon_machine.arch.frequency_hz
        # The original machine is untouched.
        assert athlon_machine.arch.frequency_hz == 3.1e9

    def test_critical_voltage_rises_with_frequency(self, athlon_machine):
        slow = athlon_machine.at_frequency(2.5e9)
        fast = athlon_machine.at_frequency(3.6e9)
        assert slow.critical_voltage_v() \
            < athlon_machine.critical_voltage_v() \
            < fast.critical_voltage_v()

    def test_nominal_point_unchanged(self, athlon_machine):
        reclocked = athlon_machine.at_frequency(3.1e9)
        assert reclocked.critical_voltage_v() == pytest.approx(
            athlon_machine.critical_voltage_v())

    def test_bad_frequency_rejected(self, athlon_machine):
        from repro.core.errors import TargetError
        with pytest.raises(TargetError):
            athlon_machine.at_frequency(0.0)

    def test_higher_clock_draws_more_power(self, athlon_machine):
        src = ".loop\naddps xmm0, xmm1\nmov r9, [rbp+8]\n.endloop\n"
        base = athlon_machine.run_source(src).core_power_w
        fast = athlon_machine.at_frequency(3.6e9).run_source(
            src).core_power_w
        assert fast > base

    def test_reclocking_shifts_current_spectrum(self, athlon_machine):
        """The same loop's current fundamental moves with the clock —
        the mechanism that detunes a dI/dt virus off its sweet spot."""
        from repro.analysis import current_spectrum
        src = (".loop\n" + "vfmadd231ps xmm0, xmm1, xmm2\n" * 8
               + "idiv2 rsi, rdi\n" * 2 + ".endloop\n")

        def dominant(machine):
            program = machine.compile(src)
            trace = machine.pipeline.execute(
                program, max_cycles=machine.sim_cycles)
            current = machine.power.current_trace_a(program, trace)
            return current_spectrum(
                current, machine.arch.frequency_hz
            ).dominant_frequency_hz()

        base = dominant(athlon_machine)
        fast = dominant(athlon_machine.at_frequency(3.6e9))
        assert fast == pytest.approx(base * 3.6 / 3.1, rel=0.1)


class TestShmoo:
    def _machine(self):
        return SimulatedMachine("athlon_x4", seed=9, sim_cycles=800)

    def test_vmin_curve_monotone(self):
        from repro.analysis import frequency_shmoo
        machine = self._machine()
        result = frequency_shmoo(
            machine, ".loop\naddps xmm0, xmm1\nmulps xmm2, xmm3\n"
            ".endloop\n", "probe",
            frequency_fractions=(0.9, 1.0, 1.1))
        assert result.is_monotonic_in_frequency()
        assert len(result.frequencies_hz) == 3

    def test_shmoo_table_renders(self):
        from repro.analysis import frequency_shmoo, shmoo_table
        machine = self._machine()
        result = frequency_shmoo(machine, ".loop\nnop\n.endloop\n",
                                 "idleish", frequency_fractions=(1.0,))
        text = shmoo_table([result])
        assert "idleish" in text and "f (GHz)" in text

    def test_empty_grid_rejected(self):
        from repro.analysis import frequency_shmoo
        from repro.core.errors import SimulationError
        with pytest.raises(SimulationError):
            frequency_shmoo(self._machine(), ".loop\nnop\n.endloop\n",
                            "x", frequency_fractions=())

    def test_negative_fraction_rejected(self):
        from repro.analysis import frequency_shmoo
        from repro.core.errors import SimulationError
        with pytest.raises(SimulationError):
            frequency_shmoo(self._machine(), ".loop\nnop\n.endloop\n",
                            "x", frequency_fractions=(-1.0,))
