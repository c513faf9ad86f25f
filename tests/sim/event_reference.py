"""The seed event-driven simulator, kept verbatim as a test reference.

:class:`repro.sim.simulator.GateLevelSimulator` runs on flat integer
tables (net ids, per-cell input-id tuples, resolved delays, tuple heap
entries).  This module is the engine it replaced: one :class:`Event`
dataclass per scheduled change in an :class:`EventQueue`, string net names,
a per-event pin-to-value dict handed to ``GateSpec.evaluate``, and a
:class:`~repro.sim.simulator.TransitionRecord` per committed cell event.
The equivalence suite (``test_event_equivalence.py``) holds the table engine
to this one event for event: waveforms, transition logs,
``events_processed``, monitor callbacks and settled values.  Only the
imports differ from the original modules.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.circuits.gates import LogicValue, gate_spec, is_sequential
from repro.circuits.library import CellLibrary
from repro.circuits.netlist import Cell, Netlist
from repro.sim.simulator import Monitor, SimulationError, TransitionRecord
from repro.sim.sta import WIRE_CAP_PER_FANOUT_FF
from repro.sim.waveform import Waveform

@dataclass(frozen=True, order=True)
class Event:
    """A scheduled value change on a net.

    Attributes
    ----------
    time:
        Simulation time in picoseconds.
    seq:
        Tie-breaking sequence number (schedule order).
    net:
        Net name whose value changes.
    value:
        New logic value (0, 1 or ``None`` for X).
    cause:
        Optional cell instance name that produced the event, or ``"PI"`` for
        environment-driven changes.  Used by monitors and debugging output.
    """

    time: float
    seq: int
    net: str = field(compare=False)
    value: LogicValue = field(compare=False)
    cause: str = field(compare=False, default="PI")


class EventQueue:
    """Priority queue of :class:`Event` ordered by ``(time, seq)``."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(self, time: float, net: str, value: LogicValue, cause: str = "PI") -> Event:
        """Schedule a value change and return the created event."""
        if time < 0:
            raise ValueError("event time must be non-negative")
        event = Event(time=time, seq=next(self._counter), net=net, value=value, cause=cause)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest pending event."""
        return heapq.heappop(self._heap)

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest pending event, or ``None``."""
        if not self._heap:
            return None
        return self._heap[0].time

    def pop_simultaneous(self) -> List[Event]:
        """Pop every event sharing the earliest firing time."""
        if not self._heap:
            return []
        first = heapq.heappop(self._heap)
        batch = [first]
        while self._heap and self._heap[0].time == first.time:
            batch.append(heapq.heappop(self._heap))
        return batch

    def clear(self) -> None:
        """Discard every pending event."""
        self._heap.clear()

    def __iter__(self) -> Iterator[Event]:  # pragma: no cover - debug aid
        return iter(sorted(self._heap))


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
        self.values: Dict[str, LogicValue] = {name: None for name in netlist.nets}
        self.queue = EventQueue()
        self.waveform = Waveform()
        self.monitors: List[Monitor] = []
        self.transition_log: List[TransitionRecord] = []
        self.events_processed = 0

        # Pending scheduled value per (net) to suppress duplicate events.
        self._pending: Dict[str, LogicValue] = {}
        # Delay cache keyed by (cell name, output net) — tuple keys cannot
        # collide the way the old "name:net" f-string keys could for names
        # containing the separator.  The fanout load and the supply/variation
        # scaling are folded in on the single miss per key, so repeated
        # switching of a cell never recomputes the load.
        self._delay_cache: Dict[Tuple[str, str], float] = {}
        self._specs = {cell.name: gate_spec(cell.cell_type) for cell in netlist.iter_cells()}
        self._sequential = {
            cell.name for cell in netlist.iter_cells() if is_sequential(cell.cell_type)
        }
        self._dffs = [cell for cell in netlist.iter_cells() if cell.cell_type == "DFF"]
        # Constant cells drive their outputs at time zero.
        for cell in netlist.iter_cells():
            if cell.cell_type in ("TIE0", "TIE1"):
                value = 1 if cell.cell_type == "TIE1" else 0
                for net in cell.outputs.values():
                    self.queue.schedule(0.0, net, value, cause=cell.name)
                    self._pending[net] = value

    # ------------------------------------------------------------ monitors
    def add_monitor(self, monitor: Monitor) -> Monitor:
        """Attach a :class:`Monitor`; returns it for chaining."""
        self.monitors.append(monitor)
        return monitor

    # -------------------------------------------------------------- timing
    def output_load(self, cell: Cell, output_net: str) -> float:
        """Capacitive load on *output_net* in fF (fanout pins + wire estimate)."""
        net = self.netlist.nets[output_net]
        load = WIRE_CAP_PER_FANOUT_FF * max(1, net.fanout)
        for sink_name, _pin in net.sinks:
            sink = self.netlist.cells[sink_name]
            if self.library.has_cell(sink.cell_type):
                load += self.library.cell(sink.cell_type).input_cap
        return load

    def cell_delay(self, cell: Cell, output_net: str) -> float:
        """Switching delay of *cell* driving *output_net* at the current supply."""
        cache_key = (cell.name, output_net)
        cached = self._delay_cache.get(cache_key)
        if cached is None:
            load = self.output_load(cell, output_net)
            cached = self.library.cell_delay(cell.cell_type, load, vdd=self.vdd)
            cached *= self.delay_variation.get(cell.name, 1.0)
            self._delay_cache[cache_key] = cached
        return cached

    # ------------------------------------------------------------- stimulus
    def set_input(self, net: str, value: LogicValue, at: Optional[float] = None) -> None:
        """Schedule a primary-input change (defaults to the current time)."""
        if net not in self.netlist.nets:
            raise KeyError(f"unknown net {net!r}")
        when = self.time if at is None else float(at)
        if when < self.time:
            raise ValueError(f"cannot schedule input change in the past ({when} < {self.time})")
        self.queue.schedule(when, net, value, cause="PI")
        self._pending[net] = value

    def set_inputs(self, assignments: Dict[str, LogicValue], at: Optional[float] = None) -> None:
        """Schedule several primary-input changes at the same time."""
        for net, value in assignments.items():
            self.set_input(net, value, at=at)

    def value(self, net: str) -> LogicValue:
        """Current value of *net*."""
        return self.values[net]

    def values_of(self, nets: Sequence[str]) -> List[LogicValue]:
        """Current values of several nets, in order."""
        return [self.values[n] for n in nets]

    # ------------------------------------------------------------ execution
    def _commit(self, event: Event) -> bool:
        """Apply *event*; return ``True`` if the net value actually changed.

        ``self._pending`` deliberately keeps the *last scheduled* value of
        every net even after events fire: because each net has a single
        driver with a fixed delay, events fire in schedule order, so the last
        scheduled value is the value the net will eventually settle to — the
        correct reference when deciding whether a re-evaluation needs to
        schedule a new event.
        """
        old = self.values.get(event.net)
        if old == event.value:
            return False
        self.values[event.net] = event.value
        if self.record_waveform:
            self.waveform.record(event.net, event.time, event.value)
        if event.cause != "PI":
            cell = self.netlist.cells.get(event.cause)
            if cell is not None:
                self.transition_log.append(
                    TransitionRecord(
                        time=event.time,
                        cell=cell.name,
                        cell_type=cell.cell_type,
                        net=event.net,
                        value=event.value,
                    )
                )
        for monitor in self.monitors:
            monitor.on_net_change(event.time, event.net, old, event.value, event.cause)
        return True

    def _evaluate_cell(self, cell: Cell, rising_clock: bool = False) -> None:
        """Re-evaluate *cell* and schedule any output changes."""
        spec = self._specs[cell.name]
        if cell.cell_type == "DFF":
            if not rising_clock:
                return
            d_value = self.values.get(cell.inputs["D"])
            out_net = cell.outputs["Q"]
            self._schedule_output(cell, out_net, d_value)
            return
        inputs = {pin: self.values.get(net) for pin, net in cell.inputs.items()}
        state: LogicValue = None
        if cell.name in self._sequential:
            state = self.values.get(next(iter(cell.outputs.values())))
        outputs = spec.evaluate(inputs, state)
        for pin, new_value in outputs.items():
            out_net = cell.outputs[pin]
            self._schedule_output(cell, out_net, new_value)

    def _schedule_output(self, cell: Cell, out_net: str, new_value: LogicValue) -> None:
        current = self.values.get(out_net)
        pending = self._pending.get(out_net, current)
        if new_value == pending:
            return
        delay = self.cell_delay(cell, out_net)
        self.queue.schedule(self.time + delay, out_net, new_value, cause=cell.name)
        self._pending[out_net] = new_value

    def step(self) -> bool:
        """Process all events at the next timestamp.  Returns ``False`` when idle."""
        batch = self.queue.pop_simultaneous()
        if not batch:
            return False
        self.time = batch[0].time
        changed_nets: List[Tuple[str, LogicValue, LogicValue]] = []
        for event in batch:
            old = self.values.get(event.net)
            if self._commit(event):
                changed_nets.append((event.net, old, event.value))
                self.events_processed += 1
        # Fan out: re-evaluate every cell reading a changed net.
        evaluated = set()
        for net, old, new in changed_nets:
            for sink_name, pin in self.netlist.nets[net].sinks:
                cell = self.netlist.cells[sink_name]
                if cell.cell_type == "DFF" and pin == "CK":
                    rising = old in (0, None) and new == 1
                    if rising:
                        self._evaluate_cell(cell, rising_clock=True)
                    continue
                if sink_name in evaluated and cell.cell_type != "DFF":
                    continue
                evaluated.add(sink_name)
                self._evaluate_cell(cell)
        return True

    def run(self, until: Optional[float] = None, max_events: int = 2_000_000) -> float:
        """Run until the queue drains or *until* is reached.

        Returns the simulation time after the run.  Raises
        :class:`SimulationError` if more than *max_events* are processed,
        which would indicate an oscillating (non-monotonic) circuit.
        """
        start_events = self.events_processed
        while self.queue:
            next_time = self.queue.peek_time()
            if until is not None and next_time is not None and next_time > until:
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
    def transitions_between(self, start: float, end: float) -> List[TransitionRecord]:
        """Committed cell-output transitions with ``start < time <= end``."""
        return [t for t in self.transition_log if start < t.time <= end]

    def transition_count_by_cell_type(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> Dict[str, int]:
        """Histogram of output transitions per cell type in a time window."""
        histogram: Dict[str, int] = {}
        for record in self.transition_log:
            if record.time <= start:
                continue
            if end is not None and record.time > end:
                continue
            histogram[record.cell_type] = histogram.get(record.cell_type, 0) + 1
        return histogram

    def reset_statistics(self) -> None:
        """Clear the transition log (waveform and values are preserved)."""
        self.transition_log.clear()
        self.events_processed = 0
