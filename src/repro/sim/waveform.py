"""Signal traces recorded during simulation.

A :class:`Waveform` stores, per net, the ordered list of ``(time, value)``
changes observed during a run.  It supports the queries needed by the
analysis layer:

* value of a net at an arbitrary time (:meth:`Waveform.value_at`),
* the time of the first transition matching a predicate after some time
  (:meth:`Waveform.first_transition_after`), used to measure spacer→valid
  and valid→spacer latencies,
* counting transitions for switching-activity-based power estimation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.circuits.gates import LogicValue


@dataclass
class NetTrace:
    """Transition history of a single net."""

    name: str
    times: List[float] = field(default_factory=list)
    values: List[LogicValue] = field(default_factory=list)

    def record(self, time: float, value: LogicValue) -> None:
        """Append a transition (idempotent for repeated identical values)."""
        if self.values and self.values[-1] == value:
            return
        self.times.append(time)
        self.values.append(value)

    def value_at(self, time: float) -> LogicValue:
        """Return the net value at *time* (``None`` before the first record)."""
        idx = bisect.bisect_right(self.times, time) - 1
        if idx < 0:
            return None
        return self.values[idx]

    def transitions(self) -> List[Tuple[float, LogicValue]]:
        """All recorded ``(time, value)`` pairs."""
        return list(zip(self.times, self.values))

    def transition_count(self, since: float = 0.0, until: Optional[float] = None) -> int:
        """Number of value changes in the half-open window ``(since, until]``."""
        count = 0
        for t in self.times:
            if t <= since:
                continue
            if until is not None and t > until:
                break
            count += 1
        return count

    def first_time_matching(
        self, predicate: Callable[[LogicValue], bool], after: float = 0.0
    ) -> Optional[float]:
        """Earliest time strictly after *after* at which ``predicate(value)`` holds."""
        for t, v in zip(self.times, self.values):
            if t <= after:
                continue
            if predicate(v):
                return t
        return None


class Waveform:
    """Collection of :class:`NetTrace` keyed by net name."""

    def __init__(self) -> None:
        self.traces: Dict[str, NetTrace] = {}

    def record(self, net: str, time: float, value: LogicValue) -> None:
        """Record a transition of *net* at *time*."""
        self.open_trace(net).record(time, value)

    def open_trace(self, net: str) -> NetTrace:
        """The trace *net* records into, created and registered on first use."""
        trace = self.traces.get(net)
        if trace is None:
            trace = NetTrace(net)
            self.traces[net] = trace
        return trace

    def trace(self, net: str) -> NetTrace:
        """Return the trace of *net* (empty trace if never recorded)."""
        return self.traces.get(net, NetTrace(net))

    def value_at(self, net: str, time: float) -> LogicValue:
        """Value of *net* at *time*."""
        return self.trace(net).value_at(time)

    def first_transition_after(
        self, net: str, after: float, predicate: Callable[[LogicValue], bool]
    ) -> Optional[float]:
        """First time after *after* at which *net* satisfies *predicate*."""
        return self.trace(net).first_time_matching(predicate, after)

    def nets(self) -> Iterable[str]:
        """Names of all recorded nets."""
        return self.traces.keys()

    def total_transitions(self, since: float = 0.0, until: Optional[float] = None) -> int:
        """Total number of transitions across all nets in a window."""
        return sum(t.transition_count(since, until) for t in self.traces.values())

    def as_vcd_like_text(self, nets: Optional[Iterable[str]] = None) -> str:
        """Produce a compact human-readable dump (for debugging / examples)."""
        lines: List[str] = []
        selected = list(nets) if nets is not None else sorted(self.traces)
        for net in selected:
            trace = self.trace(net)
            changes = " ".join(
                f"{t:.0f}:{'x' if v is None else v}" for t, v in trace.transitions()
            )
            lines.append(f"{net}: {changes}")
        return "\n".join(lines)
