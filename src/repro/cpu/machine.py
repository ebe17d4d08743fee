"""The simulated target machine.

:class:`SimulatedMachine` stands in for the paper's four hardware
platforms (Table II).  It glues the substrate together: assembler
("toolchain"), pipeline ("silicon"), power, thermal and PDN models
("sensors and instruments"), and exposes exactly the observables the
paper's measurement procedures read:

* averaged power samples (ARM energy probe / wall plug),
* a quantised chip temperature (i2c sensor),
* retired-instructions-per-cycle (``perf``),
* the die voltage waveform (oscilloscope on the sense points),
* and whether the run *crashed* — the die voltage fell below the
  critical timing voltage, which is what a V_MIN characterisation
  sweeps for.

An ``os`` execution environment adds measurement noise relative to
``bare_metal`` (the paper runs the GA on one core partly because OS
environments measure noisily).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from random import Random
from typing import List, Optional, Tuple

import numpy as np

from ..core.errors import SimulationError, TargetError
from ..core.rng import make_rng
from ..isa import assembler_for
from ..isa.model import Program
from .cache import MemoryHierarchy
from .microarch import MicroArch, microarch_for
from .pdn import PDNModel, VoltageTrace
from .pipeline import ExecutionTrace, PipelineSimulator
from .power import PowerModel
from .thermal import ThermalModel

__all__ = ["RunResult", "SimulatedMachine", "BatchedMachine",
           "ENVIRONMENTS", "SHARED_SEGMENT_BASE"]

#: Memory addresses at or above this boundary live in the *shared*
#: segment: accesses there traverse the interconnect to a shared LLC
#: slice instead of staying core-private.  Templates opt in by pointing
#: a base register at the segment (see
#: :func:`repro.isa.catalogs.arm_shared_template`).
SHARED_SEGMENT_BASE = 0x100000

ENVIRONMENTS = ("bare_metal", "os")

#: Relative 1-sigma noise on power samples per environment.
_POWER_NOISE = {"bare_metal": 0.002, "os": 0.02}
_IPC_NOISE = {"bare_metal": 0.0, "os": 0.01}
_TEMP_NOISE_C = {"bare_metal": 0.0, "os": 0.25}

#: Fraction of nominal supply below which timing fails at nominal
#: frequency (the V_crit of the V_MIN model).
_CRITICAL_VOLTAGE_FRACTION = 0.78


@dataclass
class RunResult:
    """Everything observable from one program execution."""

    program_name: str
    cores_used: int
    duration_s: float
    supply_v: float
    ipc: float
    core_power_w: float
    chip_power_w: float
    power_samples_w: List[float]
    temperature_samples_c: List[float]
    voltage: VoltageTrace
    crashed: bool
    trace: ExecutionTrace = field(repr=False, default=None)
    #: hierarchy hit/miss summary; None when caches are not modelled
    cache: Optional[dict] = None
    #: interconnect power from shared-memory traffic (0 when the
    #: workload touches no shared segment or the preset has no NoC)
    noc_power_w: float = 0.0

    @property
    def avg_power_w(self) -> float:
        return sum(self.power_samples_w) / len(self.power_samples_w)

    @property
    def temperature_c(self) -> float:
        """Mean of the sensor readings taken during the run."""
        return (sum(self.temperature_samples_c)
                / len(self.temperature_samples_c))

    @property
    def peak_power_w(self) -> float:
        return max(self.power_samples_w)

    @property
    def peak_to_peak_v(self) -> float:
        return self.voltage.peak_to_peak

    @property
    def v_min(self) -> float:
        return self.voltage.v_min


@dataclass(frozen=True)
class _Deterministic:
    """The noise-free outcome of running one Program (a run-memo entry)."""

    program: Program
    trace: ExecutionTrace
    core_power_w: float
    noc_power_w: float
    chip_power_w: float
    voltage: VoltageTrace
    crashed: bool


class SimulatedMachine:
    """One simulated platform (chip + board + instruments)."""

    def __init__(self, arch: MicroArch | str,
                 environment: str = "bare_metal",
                 seed: int = 0,
                 supply_v: Optional[float] = None,
                 sim_cycles: int = 1600,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 nominal_frequency_hz: Optional[float] = None,
                 steady_state_detection: bool = True) -> None:
        if isinstance(arch, str):
            arch = microarch_for(arch)
        arch.validate()
        if environment not in ENVIRONMENTS:
            raise TargetError(
                f"unknown environment {environment!r}; "
                f"expected one of {ENVIRONMENTS}")
        if sim_cycles < 100:
            raise TargetError("sim_cycles must be >= 100")
        self.arch = arch
        self.environment = environment
        self.supply_v = supply_v if supply_v is not None else arch.vdd_nominal
        self.sim_cycles = sim_cycles
        self._rng: Random = make_rng(seed)
        self._seed = seed
        #: The chip's specification frequency: the anchor of the timing
        #: (critical-voltage) model.  Differs from arch.frequency_hz on
        #: machines produced by at_frequency().
        self.nominal_frequency_hz = nominal_frequency_hz \
            if nominal_frequency_hz is not None else arch.frequency_hz
        self.hierarchy = hierarchy
        self.assembler = assembler_for(arch.isa)
        #: Whether the pipeline may stop at a recurring scheduler state
        #: and tile the detected period (observably identical; see
        #: :mod:`repro.cpu.pipeline`).  Exposed for A/B validation.
        self.steady_state_detection = steady_state_detection
        self.pipeline = PipelineSimulator(
            arch, detect_steady_state=steady_state_detection)
        self.power = PowerModel(arch)
        self.thermal = ThermalModel(arch.thermal)
        self.pdn = PDNModel(arch.pdn, arch.frequency_hz)
        self._compile_cache: "OrderedDict[Tuple[str, str], Program]" = \
            OrderedDict()
        #: Content-addressed compile-cache counters: GA populations
        #: re-render many identical sources (elites, converged genes),
        #: so assembly work repeats.  Surfaced per generation in
        #: :class:`repro.core.engine.GenerationStats`.
        self.compile_cache_hits = 0
        self.compile_cache_misses = 0
        self._run_memo: "OrderedDict[tuple, _Deterministic]" = \
            OrderedDict()

    #: Entries kept in the compile cache; enough for several
    #: generations of distinct sources at paper-scale populations.
    COMPILE_CACHE_CAP = 512
    #: Entries kept in the run memo (the noise-free part of
    #: :meth:`run` per Program, cores and supply); enough for a
    #: shipped-config generation's elites and repeated renderings.
    RUN_MEMO_CAP = 64

    # -- toolchain -----------------------------------------------------------

    def compile(self, source: str, name: str = "stress.s",
                builder=None) -> Program:
        """Assemble source text; raises AssemblyError on bad code.

        Results are cached content-addressed on ``(name, source)`` —
        assembly is pure, and :class:`~repro.isa.model.Program` is
        treated as immutable by every consumer — with LRU eviction at
        :data:`COMPILE_CACHE_CAP` entries.  Failures are not cached.

        ``builder`` optionally supplies the Program on a cache miss in
        place of the full assembler — the evaluation pipeline's shared
        compile path passes its :class:`~repro.isa.splice.TemplateSplicer`
        here, for the screen and the measurement alike.  The
        builder must produce exactly what ``assemble`` would (splicers
        self-validate), so cache content is identical either way.
        """
        key = (name, source)
        cached = self._compile_cache.get(key)
        if cached is not None:
            self._compile_cache.move_to_end(key)
            self.compile_cache_hits += 1
            return cached
        if builder is not None:
            program = builder(source, name)
        else:
            program = self.assembler.assemble(source, name=name)
        self.compile_cache_misses += 1
        self._compile_cache[key] = program
        if len(self._compile_cache) > self.COMPILE_CACHE_CAP:
            self._compile_cache.popitem(last=False)
        return program

    # -- noise stream control ------------------------------------------------

    def reseed(self, seed: int) -> None:
        """Reset the measurement-noise stream to a known point.

        The staged evaluation layer (:mod:`repro.evaluation`) pins a
        per-individual noise substream before every measurement so that
        a run's observables are a pure function of (source, machine,
        measurement parameters) — independent of evaluation order.
        That is what makes serial, process-pool and cached evaluation
        bit-identical, exactly like measuring on replicated boards.
        """
        self._rng = make_rng(seed)

    # -- idle characteristics ----------------------------------------------------

    def idle_core_power_w(self) -> float:
        """Power of a core executing nothing (clock + leakage)."""
        scale = (self.supply_v / self.arch.vdd_nominal) ** 2
        clock = self.arch.base_cycle_pj * 1e-12 * self.arch.frequency_hz
        return clock * scale + self.power.static_power_w(self.supply_v)

    def idle_chip_power_w(self) -> float:
        return self.power.chip_power_w(self.idle_core_power_w())

    def idle_temperature_c(self) -> float:
        """Steady idle chip temperature — Equation 1's ``I_T``."""
        return self.thermal.steady_state_c(self.idle_chip_power_w())

    def max_temperature_c(self, active_cores: Optional[int] = None) -> float:
        """A TJMAX-style bound used to normalise Equation 1's
        temperature score: the steady temperature if every issue slot of
        ``active_cores`` (default: all) burned the most energetic op
        every cycle.  GA searches that measure on a single core should
        normalise against ``active_cores=1`` so the temperature score
        spans a useful range."""
        cores = active_cores if active_cores is not None \
            else self.arch.core_count
        peak_epi = max(self.arch.epi_pj.values()) * 1.1
        per_core = (peak_epi * self.arch.issue_width
                    + self.arch.base_cycle_pj
                    + self.arch.window_slot_pj * self.arch.window_size)
        power = per_core * 1e-12 * self.arch.frequency_hz \
            + self.power.static_power_w(self.supply_v)
        chip = self.power.chip_power_w(power, cores) \
            + self.idle_core_power_w() * (self.arch.core_count - cores)
        return self.thermal.steady_state_c(chip)

    # -- execution ------------------------------------------------------------

    def run(self, program: Program, duration_s: float = 5.0,
            cores: Optional[int] = None,
            power_sample_count: int = 10,
            supply_v: Optional[float] = None) -> RunResult:
        """Execute ``program`` for ``duration_s`` seconds (modelled).

        ``cores`` follows the paper's methodology: the GA optimises on a
        single core, final viruses are scored with one instance per
        core.  ``supply_v`` overrides the machine setting for V_MIN
        sweeps.
        """
        cores, supply = self._run_arguments(duration_s, cores,
                                            power_sample_count, supply_v)
        return self._draw(self._deterministic(program, cores, supply),
                          cores, supply, duration_s, power_sample_count)

    def _run_arguments(self, duration_s: float, cores: Optional[int],
                       power_sample_count: int,
                       supply_v: Optional[float]) -> Tuple[int, float]:
        """Validate :meth:`run`'s arguments (shared with
        :meth:`BatchedMachine.run_batch`); returns the resolved
        ``(cores, supply)``."""
        if duration_s <= 0:
            raise SimulationError("duration must be positive")
        if power_sample_count < 1:
            raise SimulationError("need at least one power sample")
        cores = cores if cores is not None else 1
        if not 1 <= cores <= self.arch.core_count:
            raise SimulationError(
                f"cores={cores} outside 1..{self.arch.core_count}")
        return cores, supply_v if supply_v is not None else self.supply_v

    def _draw(self, det: "_Deterministic", cores: int, supply: float,
              duration_s: float, power_sample_count: int) -> RunResult:
        """The noisy half of :meth:`run`: one measurement of ``det``.

        Draws from the noise stream in a fixed order — IPC, then the
        power samples, then the temperatures.  The serial path and
        :meth:`BatchedMachine.run_batch` both measure through here, so
        the order has one implementation.
        """
        chip_power = det.chip_power_w
        ipc = self._noisy(det.trace.ipc, _IPC_NOISE[self.environment])
        samples = [
            max(0.0, self._noisy(chip_power, _POWER_NOISE[self.environment]))
            for _ in range(power_sample_count)
        ]
        sensor = self.thermal.sensor_reading_c(chip_power, duration_s)
        temperature_samples = [
            sensor + self._rng.gauss(0.0, _TEMP_NOISE_C[self.environment])
            for _ in range(power_sample_count)
        ]

        return RunResult(
            program_name=det.program.name,
            cores_used=cores,
            duration_s=duration_s,
            supply_v=supply,
            ipc=max(0.0, ipc),
            core_power_w=det.core_power_w,
            chip_power_w=chip_power,
            power_samples_w=samples,
            temperature_samples_c=temperature_samples,
            voltage=det.voltage,
            crashed=det.crashed,
            trace=det.trace,
            cache=det.trace.cache_summary,
            noc_power_w=det.noc_power_w,
        )

    def _deterministic(self, program: Program, cores: int,
                       supply: float) -> "_Deterministic":
        """The noise-free part of :meth:`run`, memoised per Program.

        The pipeline trace, the power figures and the PDN response are
        a pure function of (program, cores, supply) on a given machine,
        so re-running an elite or a re-rendered source only redraws its
        noise.  The memo is keyed on the Program's identity — compiled
        Programs come from the content-addressed compile cache, and the
        entry keeps its Program alive so the key cannot be reused — and
        is bounded by :data:`RUN_MEMO_CAP` with LRU eviction.  Machines
        with a :class:`~repro.cpu.cache.MemoryHierarchy` bypass it: the
        hierarchy is a mutable object the key does not cover.
        """
        if self.hierarchy is not None:
            return self._simulate(program, cores, supply)
        key = (id(program), cores, supply)
        memo = self._run_memo
        entry = memo.get(key)
        if entry is not None and entry.program is program:
            memo.move_to_end(key)
            return entry
        entry = self._simulate(program, cores, supply)
        memo[key] = entry
        if len(memo) > self.RUN_MEMO_CAP:
            memo.popitem(last=False)
        return entry

    def _simulate(self, program: Program, cores: int,
                  supply: float) -> "_Deterministic":
        trace = self.pipeline.execute(program, max_cycles=self.sim_cycles,
                                      hierarchy=self.hierarchy)
        energy, = self.power.energy_traces_pj([program], [trace])
        return self._outcome(program, trace, energy, cores, supply)

    def _outcome(self, program: Program, trace: ExecutionTrace,
                 energy: np.ndarray, cores: int,
                 supply: float) -> "_Deterministic":
        """The noise-free outcome of one run from its pipeline trace and
        that trace's :meth:`PowerModel.energy_traces_pj` row: power
        (:meth:`_power`), the PDN response (hinted with the trace's
        steady-state period) and the crash verdict.  :meth:`run` and
        :meth:`BatchedMachine.run_batch` both build outcomes here."""
        powers, current = self._power(program, trace, energy, cores, supply)
        voltage = self.pdn.simulate(current, supply,
                                    period=trace.period_cycles or None,
                                    prefix=trace.prefix_cycles)
        return _Deterministic(program, trace, *powers, voltage,
                              voltage.v_min < self.critical_voltage_v())

    def _power(self, program: Program, trace: ExecutionTrace,
               energy: np.ndarray, cores: int, supply: float
               ) -> Tuple[Tuple[float, float, float], np.ndarray]:
        """Power figures and die current of one run.

        ``energy`` is the program's per-cycle dynamic energy at nominal
        supply (:meth:`PowerModel.energy_traces_pj`); it is scaled to
        ``supply`` once and feeds both the power figures and the
        current.  Returns ``((core_power_w, noc_power_w,
        chip_power_w), current_a)`` — the figures in
        :class:`_Deterministic` field order, the current summed over
        ``cores`` instances.
        """
        power = self.power
        energy = energy * (supply / self.arch.vdd_nominal) ** 2
        core_power = power.mean_power_w(energy, supply)
        noc_power = self._noc_power_w(program, trace, cores, supply)
        # Idle cores still burn clock and leakage.
        chip_power = power.chip_power_w(core_power, cores) \
            + self.idle_core_power_w() * (self.arch.core_count - cores) \
            + noc_power
        current = power.current_from_energy_a(energy, supply)
        # Independent per-core instances do not align their activity
        # phases, so AC current adds incoherently (~sqrt(N)) while the
        # DC component adds linearly.
        mean_current = float(np.mean(current))
        total_current = (mean_current * cores
                         + (current - mean_current) * np.sqrt(cores))
        return (core_power, noc_power, chip_power), total_current

    def run_source(self, source: str, name: str = "stress.s",
                   **kwargs) -> RunResult:
        """Compile-and-run convenience used by tests and examples."""
        return self.run(self.compile(source, name=name), **kwargs)

    def shared_access_fraction(self, program: Program) -> float:
        """Fraction of the loop's memory instructions whose base
        register points into the shared segment."""
        mem_slots = [i for i in program.loop if i.iclass.is_memory]
        if not mem_slots:
            return 0.0
        shared = sum(
            1 for i in mem_slots
            if program.register_values.get(i.mem_base, 0)
            >= SHARED_SEGMENT_BASE)
        return shared / len(mem_slots)

    def _noc_power_w(self, program: Program, trace: ExecutionTrace,
                     cores: int, supply: float) -> float:
        """Interconnect power from shared-segment traffic.

        Every shared access crosses the NoC to the shared LLC slice;
        with N instances the traffic scales by N.  This reproduces the
        MAMPO-style finding the paper cites: on simulated multi-cores,
        shared-memory virus threads raise total power substantially
        through the network-on-chip."""
        if self.arch.noc_epi_pj <= 0.0:
            return 0.0
        fraction = self.shared_access_fraction(program)
        if fraction == 0.0:
            return 0.0
        mem_issues = sum(
            count for group, count in trace.group_counts.items()
            if group in ("load", "store", "load_pair", "store_pair"))
        accesses_per_cycle = mem_issues / max(1, trace.cycles)
        scale = (supply / self.arch.vdd_nominal) ** 2
        return (accesses_per_cycle * fraction * cores
                * self.arch.noc_epi_pj * 1e-12
                * self.arch.frequency_hz * scale)

    def critical_voltage_v(self) -> float:
        """Minimum die voltage for timing-correct operation at this
        machine's clock; crossing it makes the run "crash".

        Critical-path delay shrinks with voltage headroom, so the
        voltage floor rises with clock frequency: at the specification
        frequency it is the classic 78% of nominal supply; overclocked
        machines need more, underclocked ones tolerate less — the
        slope a frequency/voltage shmoo plot walks."""
        ratio = self.arch.frequency_hz / self.nominal_frequency_hz
        fraction = _CRITICAL_VOLTAGE_FRACTION * (0.55 + 0.45 * ratio)
        return self.arch.vdd_nominal * fraction

    def at_frequency(self, frequency_hz: float) -> "SimulatedMachine":
        """A copy of this machine clocked at ``frequency_hz``.

        The timing model stays anchored at the original specification
        frequency, so V_MIN sweeps across the returned machines trace a
        frequency/voltage shmoo.  Loop current spectra shift with the
        clock (cycles per iteration are frequency-invariant), so a
        dI/dt virus tuned to the PDN resonance at one clock detunes at
        another — exactly as on silicon."""
        if frequency_hz <= 0:
            raise TargetError("frequency must be positive")
        return SimulatedMachine(
            self.arch.with_overrides(frequency_hz=frequency_hz),
            environment=self.environment,
            seed=self._seed,
            supply_v=self.supply_v,
            sim_cycles=self.sim_cycles,
            hierarchy=self.hierarchy,
            nominal_frequency_hz=self.nominal_frequency_hz,
            steady_state_detection=self.steady_state_detection,
        )

    # -- internals ---------------------------------------------------------------

    def _noisy(self, value: float, sigma_rel: float) -> float:
        if sigma_rel <= 0.0:
            return value
        return value * (1.0 + self._rng.gauss(0.0, sigma_rel))


class BatchedMachine:
    """Population-batched execution path over a :class:`SimulatedMachine`.

    :meth:`run_batch` evaluates a whole generation's programs in one
    pass: the pipeline model runs as a lockstep array simulation
    (:func:`repro.cpu.batch.simulate_population`) and the power model's
    energy accumulation stacks into ``(population, cycles)`` arrays.
    Only the scheduler differs from :meth:`SimulatedMachine.run`: both
    paths share the argument checks, the energy entry point
    (:meth:`PowerModel.energy_traces_pj`), the noise-free outcome
    (``SimulatedMachine._outcome``: power, PDN response, crash verdict)
    and the noise draws (``SimulatedMachine._draw``), so every
    observable is bit-identical per individual.

    Rows that share a Program object are simulated once.  Measurement
    noise is replayed per row: the caller passes one noise key per
    program (the evaluation layer's per-source substream key) and the
    batch reseeds before drawing each row's noise.  Because the
    simulation is deterministic, repeated measurements (``repeats >
    1``) replay only the noise draws instead of re-running the
    simulator.

    Machines with a :class:`~repro.cpu.cache.MemoryHierarchy` attached
    take their traces from the serial pipeline instead (the lockstep
    scheduler models core-private execution only), once per distinct
    program however many repeats; the results are the same, just
    without the lockstep speedup.
    """

    def __init__(self, machine: SimulatedMachine) -> None:
        self.machine = machine

    def run_batch(self, programs: List[Program],
                  duration_s: float = 5.0,
                  cores: Optional[int] = None,
                  power_sample_count: int = 10,
                  supply_v: Optional[float] = None,
                  noise_keys: Optional[List[int]] = None,
                  repeats: int = 1) -> List[List[RunResult]]:
        """Run every program; returns one result list (``repeats`` long)
        per program, in order."""
        machine = self.machine
        cores, supply = machine._run_arguments(duration_s, cores,
                                               power_sample_count, supply_v)
        if repeats < 1:
            raise SimulationError("repeats must be >= 1")
        if noise_keys is not None and len(noise_keys) != len(programs):
            raise SimulationError("need one noise key per program")
        if not programs:
            return []

        distinct = list({id(program): program
                         for program in programs}.values())
        if machine.hierarchy is not None:
            # Cache modelling is core-private serial state; the
            # hierarchy resets on every run, so each trace is pure.
            traces = [machine.pipeline.execute(
                program, max_cycles=machine.sim_cycles,
                hierarchy=machine.hierarchy) for program in distinct]
        else:
            from .batch import simulate_population
            traces = simulate_population(
                distinct, machine.arch, max_cycles=machine.sim_cycles,
                detect_steady_state=machine.steady_state_detection)
        energies = machine.power.energy_traces_pj(distinct, traces)
        outcomes = {
            id(program): machine._outcome(program, trace, energy, cores,
                                          supply)
            for program, trace, energy in zip(distinct, traces, energies)}

        results: List[List[RunResult]] = []
        for index, program in enumerate(programs):
            if noise_keys is not None:
                machine.reseed(noise_keys[index])
            det = outcomes[id(program)]
            results.append([
                machine._draw(det, cores, supply, duration_s,
                              power_sample_count)
                for _ in range(repeats)])
        return results
