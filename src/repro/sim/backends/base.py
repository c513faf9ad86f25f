"""The pluggable simulation-backend contract.

A *backend* answers the question "what do the nets of this netlist settle to
for these primary-input assignments?" — possibly for a whole batch of input
vectors at once, and possibly with per-gate switching-activity counts on the
side.  Three implementations ship with the repo:

``"event"``
    :class:`~repro.sim.backends.event.EventBackend` — wraps the timing-
    accurate event-driven :class:`~repro.sim.simulator.GateLevelSimulator`.
    Use it whenever *when* something switches matters (latency, grace
    periods, monotonicity checking, glitch-accurate power).

``"bitpack"``
    :class:`~repro.sim.backends.bitpack.BitpackBackend` — levelizes the
    netlist once and evaluates it with 64 samples packed into each
    ``uint64`` word (two bit-planes per net for three-valued logic), so
    every gate costs a handful of bitwise word operations for the whole
    batch.  Use it whenever only the *functional* outputs and cycle-level
    transition counts are needed (correctness sweeps, energy estimation,
    workload statistics); it is orders of magnitude faster.

``"batch"``
    :class:`~repro.sim.backends.batch.BatchBackend` — the bitpack engine,
    results unpacked to ``uint8`` planes (one byte per sample per net).

Backends are looked up by name through :func:`get_backend`, so experiment
harnesses can take a ``backend="event"|"batch"|"bitpack"`` argument without
importing concrete classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

try:  # Protocol is 3.8+; keep an import guard for exotic interpreters.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - typing_extensions fallback
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        """Identity decorator standing in for :func:`typing.runtime_checkable`."""
        return cls


from repro.circuits.gates import LogicValue
from repro.circuits.library import CellLibrary
from repro.circuits.netlist import Netlist


class BackendError(Exception):
    """Raised when a backend cannot simulate the given netlist or stimulus."""


@dataclass
class BatchResult:
    """Outcome of pushing a batch of input vectors through a backend.

    Attributes
    ----------
    samples:
        Number of input vectors evaluated.
    outputs:
        Per-sample settled values of the primary outputs:
        ``outputs[k][net] -> LogicValue`` for sample ``k``.
    activity_by_cell:
        Committed output-transition count per cell instance, summed over the
        batch (the quantity energy estimation needs).
    activity_by_cell_type:
        The same activity aggregated by cell type (the granularity
        :class:`~repro.sim.power.PowerAccountant` prices energy at).
    net_values:
        Optional per-net settled values for the whole batch (backends that
        keep them expose the full matrix for gate-for-gate cross-checking):
        ``net_values[net][k] -> LogicValue`` for sample ``k``.
    """

    samples: int
    outputs: List[Dict[str, LogicValue]]
    activity_by_cell: Dict[str, int] = field(default_factory=dict)
    activity_by_cell_type: Dict[str, int] = field(default_factory=dict)
    net_values: Optional[Dict[str, List[LogicValue]]] = None

    @property
    def transitions(self) -> int:
        """Total committed transitions across the batch."""
        return sum(self.activity_by_cell_type.values())


@runtime_checkable
class SimulationBackend(Protocol):
    """Structural protocol every simulation backend implements.

    Construction is ``Backend(netlist, library, vdd=None)``; afterwards the
    backend is reusable across any number of evaluations of that netlist.
    """

    #: Registry name ("event", "batch", ...).
    name: str

    def evaluate(self, assignments: Mapping[str, int]) -> Dict[str, LogicValue]:
        """Settled value of every net for one full primary-input assignment."""
        ...

    def run_batch(
        self,
        batch: Sequence[Mapping[str, int]],
        baseline: Optional[Mapping[str, int]] = None,
    ) -> BatchResult:
        """Evaluate a batch of assignments; see :class:`BatchResult`.

        ``baseline`` is the rest-state assignment transitions are counted
        against (for spacer-separated dual-rail cycles, the spacer input
        word); backends that measure transitions directly may ignore it.
        """
        ...


def classify_cell_type(cell_type: str) -> Optional[Tuple[str, Optional[Tuple[int, ...]]]]:
    """Classify *cell_type* into the levelized backends' dispatch vocabulary.

    The single definition of which cell types the vectorized engines can
    execute: ``compile_program`` validates against it at compile time and
    :func:`~repro.sim.kernels.build_grouped_plan` buckets ops by it, so a
    cell type accepted by the compiler is guaranteed executable by every
    vectorized engine (bitpack, its batch view and timed).  Returns
    ``(tag, groups)`` where *tag* is one of
    ``"inv" | "buf" | "maj3" | "xor" | "xnor" | "and" | "nand" | "or" |
    "nor" | "c" | "aoi" | "oai" | "ao" | "oa"`` and *groups* is the
    per-digit pin grouping for the four complex-gate tags (``None``
    otherwise), or ``None`` for cell types outside the vocabulary.
    """
    simple = {
        "INV": "inv", "BUF": "buf", "MAJ3": "maj3", "XOR2": "xor", "XNOR2": "xnor",
    }
    if cell_type in simple:
        return simple[cell_type], None
    for prefix, tag in (("NAND", "nand"), ("AND", "and"), ("NOR", "nor"), ("OR", "or")):
        if cell_type.startswith(prefix):
            return tag, None
    if cell_type.startswith("C") and cell_type[1:].isdigit():
        return "c", None
    for prefix in ("AOI", "OAI", "AO", "OA"):
        if cell_type.startswith(prefix) and cell_type[len(prefix):].isdigit():
            return prefix.lower(), tuple(int(d) for d in cell_type[len(prefix):])
    return None


#: name -> factory(netlist, library, vdd) for the built-in backends.
_REGISTRY: Dict[str, Callable[..., SimulationBackend]] = {}


def register_backend(name: str, factory: Callable[..., SimulationBackend]) -> None:
    """Register a backend factory under *name* (last registration wins)."""
    _REGISTRY[name] = factory


def available_backends() -> List[str]:
    """Names of all registered backends, sorted."""
    return sorted(_REGISTRY)


def get_backend(
    name: str,
    netlist: Optional[Netlist] = None,
    library: Optional[CellLibrary] = None,
    vdd: Optional[float] = None,
    program=None,
) -> SimulationBackend:
    """Instantiate the backend registered as *name*.

    The documented construction API takes **exactly one** of:

    ``netlist=``
        Compile the netlist for this backend (the seed behaviour).  The
        event backend executes the netlist directly.

    ``program=``
        Execute a precompiled
        :class:`~repro.sim.program.CompiledProgram` (e.g. one compiled in a
        parent process and shipped to a worker).  Only the vectorized
        backends accept programs; the event backend raises
        :class:`BackendError`.

    The vectorized backends execute the program through the grouped
    kernel of :mod:`repro.sim.kernels`.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown simulation backend {name!r}; available: {available_backends()}"
        ) from None
    if (netlist is None) == (program is None):
        raise BackendError(
            "get_backend takes exactly one of netlist= and program= "
            f"(got netlist={'set' if netlist is not None else 'None'}, "
            f"program={'set' if program is not None else 'None'})"
        )
    if name == "event":
        if program is not None:
            raise BackendError(
                "the event backend executes the netlist directly and cannot "
                "run a CompiledProgram; construct it with netlist="
            )
        return factory(netlist, library, vdd=vdd)
    if program is not None:
        return factory(netlist, library, vdd=vdd, program=program)
    return factory(netlist, library, vdd=vdd)
