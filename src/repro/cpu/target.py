"""SSH-style target abstraction (paper Section III.C).

GeST's ``Measurement`` base class ships utilities for talking to the
target machine over ssh — copying files with scp and executing
arbitrary commands.  Our targets are simulated, so
:class:`SimulatedTarget` reproduces that *workflow* (upload source →
compile → run binary → collect output → clean up) against an in-memory
filesystem and a :class:`~repro.cpu.machine.SimulatedMachine`, keeping
the measurement classes structured exactly like ones that would drive
real hardware.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.errors import TargetError
from ..isa.model import Program
from .machine import RunResult, SimulatedMachine

__all__ = ["SimulatedTarget"]


class SimulatedTarget:
    """A remotely-operated (simulated) test machine."""

    def __init__(self, machine: SimulatedMachine,
                 hostname: str = "target",
                 translator: Optional[Callable[[str], str]] = None) -> None:
        self.machine = machine
        self.hostname = hostname
        #: Optional source-to-assembly translation step, applied before
        #: the machine's assembler — a stand-in for invoking a
        #: higher-level-language compiler (gcc) on the target, enabling
        #: C-level GA searches (see repro.isa.clike).
        self.translator = translator
        #: Optional Program builder handed to ``machine.compile`` on a
        #: compile-cache miss (see :meth:`SimulatedMachine.compile`).
        #: :class:`~repro.evaluation.pipeline.EvaluationPipeline`
        #: installs its template splicer here, so the measurement
        #: shares one compile path with the static screen.
        self.builder: Optional[Callable[[str, str], Program]] = None
        self._files: Dict[str, str] = {}
        self._binaries: Dict[str, Program] = {}
        self.connected = False

    # -- session -------------------------------------------------------------

    def connect(self) -> None:
        """Open the (pretend) ssh session."""
        self.connected = True

    def disconnect(self) -> None:
        self.connected = False

    def _require_connection(self) -> None:
        if not self.connected:
            raise TargetError(
                f"not connected to {self.hostname!r}; call connect() first")

    # -- scp-like file transfer --------------------------------------------------

    def copy_file(self, remote_name: str, content: str) -> None:
        """scp a source file onto the target."""
        self._require_connection()
        if not remote_name:
            raise TargetError("remote file name must be non-empty")
        self._files[remote_name] = content

    def read_file(self, remote_name: str) -> str:
        self._require_connection()
        try:
            return self._files[remote_name]
        except KeyError:
            raise TargetError(
                f"no file {remote_name!r} on {self.hostname!r}") from None

    def remove_file(self, remote_name: str) -> None:
        self._require_connection()
        self._files.pop(remote_name, None)
        self._binaries.pop(_binary_name(remote_name), None)

    def list_files(self) -> tuple:
        self._require_connection()
        return tuple(sorted(self._files))

    # -- remote compilation and execution ----------------------------------------

    def compile_file(self, remote_name: str) -> str:
        """Compile an uploaded source file; returns the binary name.

        Raises :class:`~repro.core.errors.AssemblyError` exactly as a
        failing compiler invocation over ssh would surface.
        """
        self._require_connection()
        source = self.read_file(remote_name)
        if self.translator is not None:
            source = self.translator(source)
        program = self.machine.compile(source, name=remote_name,
                                       builder=self.builder)
        binary = _binary_name(remote_name)
        self._binaries[binary] = program
        return binary

    def run_binary(self, binary_name: str, duration_s: float = 5.0,
                   cores: Optional[int] = None,
                   power_sample_count: int = 10,
                   supply_v: Optional[float] = None) -> RunResult:
        """Run a compiled binary and collect the machine's observables."""
        self._require_connection()
        try:
            program = self._binaries[binary_name]
        except KeyError:
            raise TargetError(
                f"no binary {binary_name!r} on {self.hostname!r}; "
                "compile_file() first") from None
        return self.machine.run(program, duration_s=duration_s, cores=cores,
                                power_sample_count=power_sample_count,
                                supply_v=supply_v)

    def cleanup(self) -> None:
        """Remove all uploaded files and binaries (end-of-run hygiene)."""
        self._require_connection()
        self._files.clear()
        self._binaries.clear()


def _binary_name(source_name: str) -> str:
    stem = source_name.rsplit(".", 1)[0]
    return stem + ".bin"
