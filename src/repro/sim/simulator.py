"""Gate-level event-driven simulator.

This is the behavioural equivalent of the paper's post-synthesis gate-level
simulation: every cell instance switches after a per-cell delay obtained from
the characterised library (optionally scaled for supply voltage and per-cell
variation), and the simulator processes the resulting events in time order.

Design notes
------------
* **Delays** come from :func:`repro.sim.sta.cell_output_delay`: the library
  delay at the load actually present on each output net
  (:func:`repro.sim.sta.output_load`), scaled by the library's voltage model
  for the selected supply and by an optional per-instance variation factor
  (used for delay-variation robustness experiments).  Each cell's delay is
  resolved once, when the simulator is built.
* **Three-valued logic** with controlling-value evaluation gives faithful
  *early propagation*: an OR-type rail can switch as soon as a single input
  arrives, which is exactly the mechanism the dual-rail comparator exploits.
* **Sequential cells**: Muller C-elements hold state through their own output
  value; D flip-flops sample their ``D`` pin on the rising edge of ``CK``.
* **Monitors** (see :mod:`repro.sim.monitors`) observe every committed net
  change; they are how the protocol requirements of Section III are checked
  dynamically.

Engine
------
The event loop runs on integer tables built once per simulator: net ids in
netlist insertion order, one fanout tuple of cell indices per net, and per
cell its input-id tuple, output id, resolved delay and a scalar evaluator
chosen by the :func:`~repro.sim.backends.base.classify_cell_type` dispatch
tag (the vocabulary of the vectorized engines).  Heap entries are plain
``(time, seq, net, value, cause)`` tuples; the transition log holds
``(time, cell, net, value)`` tuples, and :class:`TransitionRecord` objects
are built only when :meth:`GateLevelSimulator.transitions_between` asks.
The tables are built from the netlist rather than from a
:class:`~repro.sim.program.CompiledProgram` because the event engine must
also run what :func:`~repro.sim.program.compile_program` rejects: flip-flops
(the clocked single-rail baseline) and cyclic netlists.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.circuits.gates import LogicValue, gate_spec
from repro.circuits.library import CellLibrary
from repro.circuits.netlist import Netlist

from .backends.base import classify_cell_type
from .sta import cell_output_delay
from .waveform import Waveform

#: ``cause`` id of primary-input events (cell causes are cell indices).
_PI = -1


class SimulationError(Exception):
    """Raised when a run cannot make progress (e.g. oscillation detected)."""


class Monitor:
    """Base class for simulation observers.

    Subclasses override :meth:`on_net_change`; the simulator calls it after
    every committed value change.
    """

    def on_net_change(
        self, time: float, net: str, old: LogicValue, new: LogicValue, cause: str
    ) -> None:  # pragma: no cover - interface default
        """Called after *net* changed from *old* to *new* at *time*."""


@dataclass
class TransitionRecord:
    """One committed output transition (used for energy accounting)."""

    time: float
    cell: str
    cell_type: str
    net: str
    value: LogicValue


# ---------------------------------------------------------------- evaluators
# Scalar three-valued gate functions over a tuple of input values, with the
# controlling-value semantics of repro.circuits.gates.


def _and(v: Sequence[LogicValue]) -> LogicValue:
    if 0 in v:
        return 0
    if v.count(1) == len(v):
        return 1
    return None


def _or(v: Sequence[LogicValue]) -> LogicValue:
    if 1 in v:
        return 1
    if v.count(0) == len(v):
        return 0
    return None


def _not(x: LogicValue) -> LogicValue:
    return None if x is None else 1 - x


def _xor(v: Sequence[LogicValue]) -> LogicValue:
    if None in v:
        return None
    acc = 0
    for x in v:
        acc ^= int(x)
    return acc


def _maj3(v: Sequence[LogicValue]) -> LogicValue:
    if v.count(1) >= 2:
        return 1
    if v.count(0) >= 2:
        return 0
    return None


def _c_element(v: Sequence[LogicValue]) -> LogicValue:
    """Muller C-element over ``(*inputs, state)``: agree to switch, else hold."""
    inputs = v[:-1]
    if inputs.count(1) == len(inputs):
        return 1
    if inputs.count(0) == len(inputs):
        return 0
    return v[-1]


_SIMPLE = {
    "inv": _not,
    "buf": lambda x: x,
    "and": _and,
    "or": _or,
    "nand": lambda v: _not(_and(v)),
    "nor": lambda v: _not(_or(v)),
    "xor": _xor,
    "xnor": lambda v: _not(_xor(v)),
    "maj3": _maj3,
    "c": _c_element,
}

#: Complex-gate tags: (per-group function, combining function, inverted).
_COMPLEX = {
    "ao": (_and, _or, False),
    "aoi": (_and, _or, True),
    "oa": (_or, _and, False),
    "oai": (_or, _and, True),
}

#: A cell's evaluator: ``function(getter(values))`` is its new output value.
Evaluator = Tuple[Callable, Callable[[List[LogicValue]], object]]


def _evaluator(
    tag: str, groups: Optional[Tuple[int, ...]], ins: Tuple[int, ...], out: int
) -> Evaluator:
    """The scalar evaluator of one cell, chosen by its dispatch tag.

    *ins* are the cell's input net ids in pin order and *out* its output
    net id.  The getter reads the input values as a tuple — a bare value
    for the one-input ``inv``/``buf`` — with a C-element's held state
    (its own output) appended.
    """
    if tag in ("inv", "buf"):
        return _SIMPLE[tag], itemgetter(*ins)
    pins = ins + (out,) if tag == "c" else ins
    get = itemgetter(*pins) if len(pins) > 1 else (lambda values, a=pins[0]: (values[a],))
    if tag not in _COMPLEX:
        return _SIMPLE[tag], get
    inner, outer, inverted = _COMPLEX[tag]
    slices, start = [], 0
    for width in groups:
        slices.append(slice(start, start + width))
        start += width

    def complex_gate(v: Sequence[LogicValue]) -> LogicValue:
        y = outer([inner(v[s]) for s in slices])
        return _not(y) if inverted else y

    return complex_gate, get


class GateLevelSimulator:
    """Event-driven simulator for a mapped gate-level netlist.

    Parameters
    ----------
    netlist:
        The design to simulate.
    library:
        Characterised cell library supplying delays and energies.
    vdd:
        Supply voltage; defaults to the library's nominal voltage.  Delays
        and energies are scaled through the library's voltage model.
    record_waveform:
        When ``True`` every net change is recorded into :attr:`waveform`.
    delay_variation:
        Optional per-instance multiplicative delay factor
        (``cell name -> factor``), used by robustness experiments to model
        process/temperature-induced delay variation.  Missing entries use a
        factor of 1.0.
    """

    def __init__(
        self,
        netlist: Netlist,
        library: CellLibrary,
        vdd: Optional[float] = None,
        record_waveform: bool = True,
        delay_variation: Optional[Dict[str, float]] = None,
    ) -> None:
        self.netlist = netlist
        self.library = library
        self.vdd = float(vdd) if vdd is not None else library.voltage_model.nominal_vdd
        if not library.voltage_model.is_functional(self.vdd):
            raise SimulationError(
                f"library {library.name!r} is not functional at {self.vdd:.2f} V "
                f"(minimum {library.voltage_model.min_functional_vdd:.2f} V)"
            )
        self.record_waveform = record_waveform
        self.delay_variation = dict(delay_variation or {})

        self.time: float = 0.0
        self.waveform = Waveform()
        self.monitors: List[Monitor] = []
        self.events_processed = 0
        self._build_tables()

    # -------------------------------------------------------------- tables
    def _build_tables(self) -> None:
        """Resolve the netlist into the integer tables the event loop runs on.

        Net ids follow netlist insertion order; one extra id past the last
        net is an always-unknown slot that unconnected input pins read.
        ``_pending`` keeps the *last scheduled* value of every net even
        after its event fires: each net has a single driver with a fixed
        delay, so events fire in schedule order and the last scheduled
        value is the value the net will settle to — the reference for
        deciding whether a re-evaluation schedules a new event.
        """
        netlist, library = self.netlist, self.library
        self._net_names: Tuple[str, ...] = tuple(netlist.nets)
        self._net_id: Dict[str, int] = {name: i for i, name in enumerate(self._net_names)}
        unconnected = len(self._net_names)
        self._values: List[LogicValue] = [None] * (unconnected + 1)
        self._pending: List[LogicValue] = [None] * (unconnected + 1)
        self._traces: List = [None] * unconnected
        self._heap: List[Tuple[float, int, int, LogicValue, int]] = []
        self._seq = itertools.count()
        self._log: List[Tuple[float, int, int, LogicValue]] = []

        cells = list(netlist.iter_cells())
        self._cell_index = {cell.name: c for c, cell in enumerate(cells)}
        self._cell_names = tuple(cell.name for cell in cells)
        self._cell_types = tuple(cell.cell_type for cell in cells)
        self._outs: List[int] = []
        self._delays: List[Optional[float]] = []
        self._evaluators: List[Optional[Evaluator]] = []
        #: DFF index -> net id of its D pin.
        self._dff_d: Dict[int, int] = {}
        constants = []
        for c, cell in enumerate(cells):
            spec = gate_spec(cell.cell_type)
            out_name = cell.outputs[spec.output_pins[0]]
            out = self._net_id[out_name]
            self._outs.append(out)
            ins = tuple(
                self._net_id[cell.inputs[pin]] if pin in cell.inputs else unconnected
                for pin in spec.input_pins
            )
            evaluator = delay = None
            if cell.cell_type in ("TIE0", "TIE1"):
                constants.append((c, out, 1 if cell.cell_type == "TIE1" else 0))
            elif cell.cell_type == "DFF":
                self._dff_d[c] = ins[0]
            else:
                tag, groups = classify_cell_type(cell.cell_type)
                evaluator = _evaluator(tag, groups, ins, out)
            if cell.cell_type not in ("TIE0", "TIE1") and library.has_cell(cell.cell_type):
                # A cell the library lacks keeps delay None and raises the
                # library's KeyError if it ever switches.
                delay = cell_output_delay(
                    netlist, library, cell.cell_type, cell.name, out_name,
                    self.vdd, self.delay_variation,
                )
            self._evaluators.append(evaluator)
            self._delays.append(delay)

        # Fanout per net in sink order: a combinational cell index once
        # (a re-evaluation in the same step would be a no-op), ``~index``
        # for a flip-flop clock pin; a flip-flop D pin acts only on an edge.
        fanout: List[List[int]] = [[] for _ in self._net_names]
        for i, name in enumerate(self._net_names):
            for sink_name, pin in netlist.nets[name].sinks:
                c = self._cell_index[sink_name]
                if c in self._dff_d:
                    if pin == "CK":
                        fanout[i].append(~c)
                elif c not in fanout[i]:
                    fanout[i].append(c)
        self._fanout: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, fanout))

        # Constant cells drive their outputs at time zero.
        for c, out, value in constants:
            heapq.heappush(self._heap, (0.0, next(self._seq), out, value, c))
            self._pending[out] = value

    # ------------------------------------------------------------ monitors
    def add_monitor(self, monitor: Monitor) -> Monitor:
        """Attach a :class:`Monitor`; returns it for chaining."""
        self.monitors.append(monitor)
        return monitor

    # -------------------------------------------------------------- timing
    def cell_delay(self, cell_name: str) -> float:
        """Switching delay (ps) of instance *cell_name* at the current supply.

        Resolved once at construction through
        :func:`repro.sim.sta.cell_output_delay`, variation factor included.
        """
        c = self._cell_index[cell_name]
        delay = self._delays[c]
        if delay is None:
            self.library.cell(self._cell_types[c])  # raises: not in library
        return delay

    # ------------------------------------------------------------- stimulus
    def set_input(self, net: str, value: LogicValue, at: Optional[float] = None) -> None:
        """Schedule a primary-input change (defaults to the current time)."""
        net_id = self._net_id.get(net)
        if net_id is None:
            raise KeyError(f"unknown net {net!r}")
        when = self.time if at is None else float(at)
        if when < self.time:
            raise ValueError(f"cannot schedule input change in the past ({when} < {self.time})")
        if when < 0:
            raise ValueError("event time must be non-negative")
        heapq.heappush(self._heap, (when, next(self._seq), net_id, value, _PI))
        self._pending[net_id] = value

    def set_inputs(self, assignments: Dict[str, LogicValue], at: Optional[float] = None) -> None:
        """Schedule several primary-input changes at the same time."""
        for net, value in assignments.items():
            self.set_input(net, value, at=at)

    def value(self, net: str) -> LogicValue:
        """Current value of *net*."""
        return self._values[self._net_id[net]]

    def values_of(self, nets: Sequence[str]) -> List[LogicValue]:
        """Current values of several nets, in order."""
        values, net_id = self._values, self._net_id
        return [values[net_id[n]] for n in nets]

    @property
    def values(self) -> Dict[str, LogicValue]:
        """A snapshot of every net's current value, keyed by net name."""
        return dict(zip(self._net_names, self._values))

    # ------------------------------------------------------------ execution
    def step(self) -> bool:
        """Process all events at the next timestamp.  Returns ``False`` when idle."""
        heap = self._heap
        if not heap:
            return False
        pop = heapq.heappop
        now = heap[0][0]
        batch = [pop(heap)]
        while heap and heap[0][0] == now:
            batch.append(pop(heap))
        self.time = now
        values = self._values
        names = self._net_names
        monitors = self.monitors
        traces = self._traces if self.record_waveform else None
        log_append = self._log.append
        changed = []
        for _, _, net, value, cause in batch:
            old = values[net]
            if old == value:
                continue
            values[net] = value
            if traces is not None:
                trace = traces[net]
                if trace is None:
                    trace = traces[net] = self.waveform.open_trace(names[net])
                recorded = trace.values
                if not recorded or recorded[-1] != value:
                    trace.times.append(now)
                    recorded.append(value)
            if cause != _PI:
                log_append((now, cause, net, value))
            if monitors:
                cause_name = "PI" if cause == _PI else self._cell_names[cause]
                for monitor in monitors:
                    monitor.on_net_change(now, names[net], old, value, cause_name)
            changed.append((net, old, value))
        self.events_processed += len(changed)

        # Fan out: re-evaluate every cell reading a changed net.
        fanout, evaluators, outs = self._fanout, self._evaluators, self._outs
        delays, pending, seq = self._delays, self._pending, self._seq
        push = heapq.heappush
        evaluated = set()
        for net, old, new in changed:
            for c in fanout[net]:
                if c < 0:
                    c = ~c
                    if not (old in (0, None) and new == 1):
                        continue
                    new_value = values[self._dff_d[c]]
                elif c in evaluated:
                    continue
                else:
                    evaluated.add(c)
                    function, get = evaluators[c]
                    new_value = function(get(values))
                out = outs[c]
                if new_value == pending[out]:
                    continue
                delay = delays[c]
                if delay is None:
                    delay = self.cell_delay(self._cell_names[c])
                push(heap, (now + delay, next(seq), out, new_value, c))
                pending[out] = new_value
        return True

    def run(self, until: Optional[float] = None, max_events: int = 2_000_000) -> float:
        """Run until the queue drains or *until* is reached.

        Returns the simulation time after the run.  Raises
        :class:`SimulationError` if more than *max_events* are processed,
        which would indicate an oscillating (non-monotonic) circuit.
        """
        start_events = self.events_processed
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                break
            self.step()
            if self.events_processed - start_events > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; circuit appears to oscillate"
                )
        if until is not None and until > self.time:
            self.time = until
        return self.time

    def settle(self, max_events: int = 2_000_000) -> float:
        """Run until no events remain and return the time of the last change."""
        return self.run(until=None, max_events=max_events)

    # ------------------------------------------------------------- statistics
    @property
    def cell_types(self) -> Tuple[str, ...]:
        """Cell type of every instance, indexed like :meth:`transition_cells`."""
        return self._cell_types

    def transition_cells(self, start: float, end: Optional[float] = None) -> List[int]:
        """Cell indices of the committed transitions with ``start < time <= end``.

        In commit order; index :attr:`cell_types` with them.  ``end=None``
        leaves the window open at the top.
        """
        top = math.inf if end is None else end
        return [cell for time, cell, _, _ in self._log if start < time <= top]

    def transitions_between(self, start: float, end: float) -> List[TransitionRecord]:
        """Committed cell-output transitions with ``start < time <= end``."""
        names, cells, types = self._net_names, self._cell_names, self._cell_types
        return [
            TransitionRecord(time, cells[cell], types[cell], names[net], value)
            for time, cell, net, value in self._log
            if start < time <= end
        ]

    def transition_count_by_cell_type(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> Dict[str, int]:
        """Histogram of output transitions per cell type in a time window."""
        histogram: Dict[str, int] = {}
        types = self._cell_types
        for cell in self.transition_cells(start, end):
            cell_type = types[cell]
            histogram[cell_type] = histogram.get(cell_type, 0) + 1
        return histogram

    def reset_statistics(self) -> None:
        """Clear the transition log (waveform and values are preserved)."""
        self._log.clear()
        self.events_processed = 0
