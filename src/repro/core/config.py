"""Configuration model and XML parsing (paper Section III.B.1, Table I).

GeST is driven by a *main configuration file* — an XML document that
specifies (a) the GA engine parameters of Table I, (b) the instruction
and operand definitions used in the search, and (c) run plumbing: the
results directory, the template source file, and the names of the
measurement and fitness classes to load dynamically.

This module provides both the parsed dataclasses (so tests and
experiments can construct configurations programmatically) and the XML
reader/writer for file-driven use, mirroring the original tool's
workflow.

Example document::

    <gest_config>
      <ga population_size="50" individual_size="50" mutation_rate="0.02"
          crossover_operator="one_point" elitism="true"
          parent_selection_method="tournament" tournament_size="5"
          generations="100" seed="42"/>
      <paths results_dir="results/run1" template="templates/arm.s"/>
      <measurement class="repro.measurement.power.PowerMeasurement"
                   config="measurement.xml"/>
      <fitness class="repro.fitness.default_fitness.DefaultFitness"/>
      <search strategy="genetic"/>
      <seed_population file="results/run0/population_20.bin"/>
      <operands>
        <operand id="mem_address_register" type="register" values="x10"/>
        <operand id="immediate_value" type="immediate"
                 min="0" max="256" stride="8"/>
      </operands>
      <instructions>
        <instruction name="LDR" num_of_operands="3"
                     operand1="mem_result"
                     operand2="mem_address_register"
                     operand3="immediate_value"
                     format="LDR op1, [op2, #op3]" type="mem"/>
      </instructions>
    </gest_config>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from .errors import ConfigError
from .instruction import InstructionLibrary, InstructionSpec
from .operand import ImmediateOperand, LabelOperand, Operand, RegisterOperand

__all__ = [
    "GAParameters",
    "EvaluationParameters",
    "SearchParameters",
    "RunConfig",
    "parse_config_file",
    "parse_config_text",
    "parse_measurement_config",
    "config_to_xml",
]


@dataclass
class GAParameters:
    """Table I of the paper, with the paper's default values.

    ``individual_size`` defaults to 50 — the paper uses 15–50 loop
    instructions depending on the target metric; 50 is the power/IPC
    setting, dI/dt searches derive theirs from the resonance rule of
    thumb (see :func:`repro.experiments.didt_virus.didt_loop_length`).
    """

    population_size: int = 50
    individual_size: int = 50
    mutation_rate: float = 0.02
    crossover_operator: str = "one_point"
    elitism: bool = True
    parent_selection_method: str = "tournament"
    tournament_size: int = 5
    generations: int = 100
    operand_mutation_share: float = 0.5
    seed: Optional[int] = None

    def validate(self) -> None:
        if self.population_size < 2:
            raise ConfigError("population_size must be >= 2")
        if self.individual_size < 1:
            raise ConfigError("individual_size must be >= 1")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigError("mutation_rate must be within [0, 1]")
        # Operator names are validated against the search-layer
        # registries — the single source of truth shared with the
        # config lint and the strategies themselves.  Imported lazily:
        # repro.search imports core submodules, so a module-level
        # import here would be circular.
        from ..search.operators import (CROSSOVER_OPERATORS,
                                        SELECTION_OPERATORS)
        if self.crossover_operator not in CROSSOVER_OPERATORS:
            raise ConfigError(
                CROSSOVER_OPERATORS.unknown_message(self.crossover_operator),
                diagnostic_code="SC209")
        if self.parent_selection_method not in SELECTION_OPERATORS:
            raise ConfigError(SELECTION_OPERATORS.unknown_message(
                self.parent_selection_method), diagnostic_code="SC209")
        if self.tournament_size < 1:
            raise ConfigError("tournament_size must be >= 1")
        if self.generations < 1:
            raise ConfigError("generations must be >= 1")
        if not 0.0 <= self.operand_mutation_share <= 1.0:
            raise ConfigError("operand_mutation_share must be within [0, 1]")

    def expected_mutations_per_individual(self) -> float:
        """The paper recommends tuning the rate so ~1–2 instructions
        mutate per individual (2% at 50 instructions, 8% at ~15)."""
        return self.mutation_rate * self.individual_size


@dataclass
class EvaluationParameters:
    """How a generation is evaluated (:mod:`repro.evaluation`).

    ``workers`` sizes the executor: 1 keeps the in-process
    :class:`~repro.evaluation.backends.SerialBackend`; N > 1 makes N
    worker processes available (the paper measures on multiple boards
    the same way); 0 means *auto* — size from the machine.  ``backend``
    picks the execution engine: ``auto`` (default — route each
    generation to the cheapest engine), ``serial``, ``batched`` (one
    in-process batch per generation), or ``pool``.  ``cache`` enables
    the content-addressed :class:`~repro.evaluation.cache.EvaluationCache`.
    Whatever the combination, the run's populations and history are
    bit-identical — the evaluation layer's determinism contract.
    """

    workers: int = 1
    cache: bool = False
    backend: str = "auto"

    def validate(self) -> None:
        if self.workers < 0:
            raise ConfigError(
                "evaluation workers must be >= 0 (0 = auto)")
        if self.backend not in ("auto", "serial", "batched", "pool"):
            raise ConfigError(
                f"unknown evaluation backend {self.backend!r}; expected "
                "one of auto, serial, batched, pool")


@dataclass
class SearchParameters:
    """Which search strategy proposes populations (:mod:`repro.search`).

    ``strategy`` names a registered :class:`~repro.search.SearchStrategy`
    (``genetic`` — the paper's GA and the default — ``random``,
    ``hill_climb``, ``simulated_annealing``); ``params`` carries the
    strategy's own tunables from the ``<search>`` block's remaining
    attributes (e.g. ``initial_temperature`` for the annealer).  Values
    stay as strings here — the strategy's declared parsers normalise
    them, so validation instantiates the strategy once and lets it
    reject unknown names or bad values with the full choice list.
    """

    strategy: str = "genetic"
    params: Dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        # Lazy import: repro.search imports core submodules.
        from ..search import make_strategy
        make_strategy(self.strategy, self.params)


@dataclass
class RunConfig:
    """Everything one GA run needs.

    ``measurement_class`` / ``fitness_class`` are dotted class paths
    resolved by :mod:`repro.core.loader` — the plug-and-play interface
    the paper highlights.  ``measurement_params`` carries the contents
    of the separate measurement XML file (paper III.C).
    """

    ga: GAParameters
    library: InstructionLibrary
    template_text: str
    measurement_class: str = "repro.measurement.power.PowerMeasurement"
    fitness_class: str = "repro.fitness.default_fitness.DefaultFitness"
    measurement_params: Dict[str, str] = field(default_factory=dict)
    results_dir: Optional[Path] = None
    seed_population_file: Optional[Path] = None
    evaluation: EvaluationParameters = field(
        default_factory=EvaluationParameters)
    search: SearchParameters = field(default_factory=SearchParameters)

    def validate(self) -> None:
        self.ga.validate()
        self.evaluation.validate()
        self.search.validate()
        if not self.template_text:
            raise ConfigError("run config has no template source")


# ---------------------------------------------------------------------------
# XML parsing
# ---------------------------------------------------------------------------

_TRUE_STRINGS = {"true", "1", "yes", "on"}
_FALSE_STRINGS = {"false", "0", "no", "off"}


def _parse_bool(raw: str, context: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in _TRUE_STRINGS:
        return True
    if lowered in _FALSE_STRINGS:
        return False
    raise ConfigError(f"{context}: cannot interpret {raw!r} as a boolean")


def _attr(element: ET.Element, name: str, context: str) -> str:
    value = element.get(name)
    if value is None:
        raise ConfigError(f"{context}: missing required attribute {name!r}")
    return value


def _parse_operand(element: ET.Element) -> Operand:
    operand_id = _attr(element, "id", "operand")
    otype = _attr(element, "type", f"operand {operand_id!r}")
    if otype == "register":
        values = _attr(element, "values", f"operand {operand_id!r}")
        return RegisterOperand.from_string(operand_id, values)
    if otype == "immediate":
        context = f"operand {operand_id!r}"
        try:
            minimum = int(_attr(element, "min", context))
            maximum = int(_attr(element, "max", context))
            stride = int(element.get("stride", "1"))
        except ValueError as exc:
            raise ConfigError(f"{context}: non-integer range value") from exc
        return ImmediateOperand(operand_id, minimum, maximum, stride)
    if otype == "label":
        values = element.get("values", "1f")
        return LabelOperand(operand_id, values.split())
    raise ConfigError(f"operand {operand_id!r}: unknown type {otype!r}")


def _parse_instruction(element: ET.Element) -> InstructionSpec:
    name = _attr(element, "name", "instruction")
    context = f"instruction {name!r}"
    try:
        declared = int(_attr(element, "num_of_operands", context))
    except ValueError as exc:
        raise ConfigError(f"{context}: num_of_operands not an integer") from exc
    operand_ids: List[str] = []
    for slot in range(1, declared + 1):
        operand_ids.append(_attr(element, f"operand{slot}", context))
    fmt = _attr(element, "format", context)
    itype = _attr(element, "type", context)
    return InstructionSpec(name, operand_ids, fmt, itype)


def parse_config_text(text: str,
                      base_dir: Optional[Path] = None) -> RunConfig:
    """Parse a main-configuration XML document from a string.

    ``base_dir`` resolves relative template / measurement-config /
    seed-population paths (defaults to the current directory).
    """
    base = Path(base_dir) if base_dir is not None else Path(".")
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ConfigError(f"invalid XML: {exc}") from exc
    if root.tag != "gest_config":
        raise ConfigError(
            f"root element must be <gest_config>, found <{root.tag}>")

    ga = _parse_ga(root.find("ga"))

    paths = root.find("paths")
    if paths is None:
        raise ConfigError("missing <paths> element")
    template_path = base / _attr(paths, "template", "paths")
    if not template_path.exists():
        raise ConfigError(f"template file {template_path} does not exist")
    template_text = template_path.read_text()
    results_attr = paths.get("results_dir")
    results_dir = base / results_attr if results_attr else None

    measurement = root.find("measurement")
    measurement_class = "repro.measurement.power.PowerMeasurement"
    measurement_params: Dict[str, str] = {}
    if measurement is not None:
        measurement_class = _attr(measurement, "class", "measurement")
        config_attr = measurement.get("config")
        if config_attr:
            measurement_params = parse_measurement_config(base / config_attr)

    fitness = root.find("fitness")
    fitness_class = "repro.fitness.default_fitness.DefaultFitness"
    if fitness is not None:
        fitness_class = _attr(fitness, "class", "fitness")

    seed_population_file = None
    seed_el = root.find("seed_population")
    if seed_el is not None:
        seed_population_file = base / _attr(seed_el, "file", "seed_population")

    operands_el = root.find("operands")
    operands = ([_parse_operand(el) for el in operands_el.findall("operand")]
                if operands_el is not None else [])
    instructions_el = root.find("instructions")
    if instructions_el is None:
        raise ConfigError("missing <instructions> element")
    instructions = [_parse_instruction(el)
                    for el in instructions_el.findall("instruction")]

    library = InstructionLibrary(operands, instructions)
    config = RunConfig(
        ga=ga,
        library=library,
        template_text=template_text,
        measurement_class=measurement_class,
        fitness_class=fitness_class,
        measurement_params=measurement_params,
        results_dir=results_dir,
        seed_population_file=seed_population_file,
        evaluation=_parse_evaluation(root.find("evaluation")),
        search=_parse_search(root.find("search")),
    )
    config.validate()
    return config


def _parse_search(element: Optional[ET.Element]) -> SearchParameters:
    """``<search strategy="..." param="value" .../>`` — every attribute
    other than ``strategy`` is passed to the strategy as a parameter."""
    search = SearchParameters()
    if element is None:
        return search
    attrs = dict(element.attrib)
    if "strategy" in attrs:
        search.strategy = attrs.pop("strategy")
    search.params = attrs
    search.validate()
    return search


def _parse_evaluation(
        element: Optional[ET.Element]) -> EvaluationParameters:
    evaluation = EvaluationParameters()
    if element is None:
        return evaluation
    context = "<evaluation>"
    try:
        if element.get("workers") is not None:
            evaluation.workers = int(element.get("workers"))
    except ValueError as exc:
        raise ConfigError(f"{context}: non-numeric workers value") from exc
    if element.get("cache") is not None:
        evaluation.cache = _parse_bool(element.get("cache"), context)
    if element.get("backend") is not None:
        evaluation.backend = element.get("backend").strip().lower()
    evaluation.validate()
    return evaluation


def _parse_ga(element: Optional[ET.Element]) -> GAParameters:
    ga = GAParameters()
    if element is None:
        return ga
    context = "<ga>"
    try:
        if element.get("population_size") is not None:
            ga.population_size = int(element.get("population_size"))
        if element.get("individual_size") is not None:
            ga.individual_size = int(element.get("individual_size"))
        if element.get("mutation_rate") is not None:
            ga.mutation_rate = float(element.get("mutation_rate"))
        if element.get("tournament_size") is not None:
            ga.tournament_size = int(element.get("tournament_size"))
        if element.get("generations") is not None:
            ga.generations = int(element.get("generations"))
        if element.get("operand_mutation_share") is not None:
            ga.operand_mutation_share = float(
                element.get("operand_mutation_share"))
        if element.get("seed") is not None:
            ga.seed = int(element.get("seed"))
    except ValueError as exc:
        raise ConfigError(f"{context}: non-numeric attribute value") from exc
    if element.get("crossover_operator") is not None:
        ga.crossover_operator = element.get("crossover_operator")
    if element.get("parent_selection_method") is not None:
        ga.parent_selection_method = element.get("parent_selection_method")
    if element.get("elitism") is not None:
        ga.elitism = _parse_bool(element.get("elitism"), context)
    ga.validate()
    return ga


def parse_config_file(path: Union[str, Path]) -> RunConfig:
    """Parse a main-configuration XML file; relative paths inside the
    document resolve against the file's own directory."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file {path} does not exist")
    return parse_config_text(path.read_text(), base_dir=path.parent)


def parse_measurement_config(path: Union[str, Path]) -> Dict[str, str]:
    """Parse the separate measurement XML file (paper III.C).

    Format: ``<measurement_config><param name="cores" value="8"/>...``
    Returned as a flat string→string mapping; the measurement class's
    ``init`` interprets the values.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"measurement config {path} does not exist")
    try:
        root = ET.fromstring(path.read_text())
    except ET.ParseError as exc:
        raise ConfigError(f"invalid measurement XML: {exc}") from exc
    if root.tag != "measurement_config":
        raise ConfigError(
            f"root element must be <measurement_config>, found <{root.tag}>")
    params: Dict[str, str] = {}
    for param in root.findall("param"):
        name = _attr(param, "name", "measurement param")
        params[name] = _attr(param, "value", f"measurement param {name!r}")
    return params


# ---------------------------------------------------------------------------
# XML writing (round-trip support for record keeping, paper III.D)
# ---------------------------------------------------------------------------

def config_to_xml(config: RunConfig, template_filename: str = "template.s",
                  results_dir: str = "results") -> str:
    """Serialise a RunConfig back to the XML document format.

    Used by the output recorder to keep an exact copy of the
    configuration with each run's results, and by tests to check
    round-tripping.  The template itself is referenced by file name (the
    recorder writes it alongside).
    """
    root = ET.Element("gest_config")
    ga = config.ga
    ET.SubElement(root, "ga", {
        "population_size": str(ga.population_size),
        "individual_size": str(ga.individual_size),
        "mutation_rate": repr(ga.mutation_rate),
        "crossover_operator": ga.crossover_operator,
        "elitism": "true" if ga.elitism else "false",
        "parent_selection_method": ga.parent_selection_method,
        "tournament_size": str(ga.tournament_size),
        "generations": str(ga.generations),
        "operand_mutation_share": repr(ga.operand_mutation_share),
        **({"seed": str(ga.seed)} if ga.seed is not None else {}),
    })
    ET.SubElement(root, "paths", {
        "results_dir": results_dir,
        "template": template_filename,
    })
    ET.SubElement(root, "measurement", {"class": config.measurement_class})
    ET.SubElement(root, "fitness", {"class": config.fitness_class})
    ET.SubElement(root, "evaluation", {
        "workers": str(config.evaluation.workers),
        "cache": "true" if config.evaluation.cache else "false",
        "backend": config.evaluation.backend,
    })
    ET.SubElement(root, "search", {
        "strategy": config.search.strategy,
        **{key: str(value)
           for key, value in config.search.params.items()},
    })

    operands_el = ET.SubElement(root, "operands")
    for operand in config.library.operands.values():
        attrs = {"id": operand.id, "type": operand.kind}
        if isinstance(operand, RegisterOperand):
            attrs["values"] = " ".join(operand.choices())
        elif isinstance(operand, ImmediateOperand):
            attrs.update(min=str(operand.minimum), max=str(operand.maximum),
                         stride=str(operand.stride))
        elif isinstance(operand, LabelOperand):
            attrs["values"] = " ".join(operand.choices())
        ET.SubElement(operands_el, "operand", attrs)

    instructions_el = ET.SubElement(root, "instructions")
    for spec in config.library.instructions.values():
        attrs = {
            "name": spec.name,
            "num_of_operands": str(spec.num_operands),
            "format": spec.fmt,
            "type": spec.itype,
        }
        for slot, oid in enumerate(spec.operand_ids, start=1):
            attrs[f"operand{slot}"] = oid
        ET.SubElement(instructions_el, "instruction", attrs)

    return ET.tostring(root, encoding="unicode")
