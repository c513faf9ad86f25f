"""The timing-accurate event-driven backend (the seed simulator, wrapped).

:class:`EventBackend` adapts :class:`~repro.sim.simulator.GateLevelSimulator`
to the :class:`~repro.sim.backends.base.SimulationBackend` protocol.  Each
:meth:`EventBackend.evaluate` call settles a *fresh* simulator from the
all-unknown state, which is exactly the reference semantics the vectorized
batch backend is cross-checked against: three-valued controlling-value
evaluation, C-elements holding unknown until their inputs agree.

For protocol-level work (handshake environments, monitors, waveforms) use
:class:`GateLevelSimulator` directly — the backend interface deliberately
exposes only the functional view shared with the batch engine.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.circuits.gates import LogicValue
from repro.circuits.library import CellLibrary
from repro.circuits.netlist import Netlist

from ..simulator import GateLevelSimulator
from .base import BatchResult, register_backend


class EventBackend:
    """Functional adapter over the event-driven gate-level simulator."""

    name = "event"

    def __init__(
        self,
        netlist: Netlist,
        library: CellLibrary,
        vdd: Optional[float] = None,
    ) -> None:
        self.netlist = netlist
        self.library = library
        self.vdd = vdd

    def _settled_simulator(self, assignments: Mapping[str, int]) -> GateLevelSimulator:
        sim = GateLevelSimulator(
            self.netlist, self.library, vdd=self.vdd, record_waveform=False
        )
        sim.set_inputs({net: int(value) for net, value in assignments.items()})
        sim.settle()
        return sim

    # ----------------------------------------------------------- protocol
    def evaluate(self, assignments: Mapping[str, int]) -> Dict[str, LogicValue]:
        """Settle a fresh simulator under *assignments*; return all net values."""
        sim = self._settled_simulator(assignments)
        return sim.values

    def run_batch(
        self,
        batch: Sequence[Mapping[str, int]],
        baseline: Optional[Mapping[str, int]] = None,
    ) -> BatchResult:
        """Evaluate each assignment in sequence (one fresh settle per sample).

        Activity is the simulator's committed transition count per cell —
        including any glitches, which is why the batch backend's cycle-level
        counts are only cross-checked against settled *values*, not against
        these totals.
        """
        outputs = []
        activity_by_cell: Dict[str, int] = {}
        activity_by_type: Dict[str, int] = {}
        net_values: Dict[str, list] = {name: [] for name in self.netlist.nets}
        for assignments in batch:
            sim = self._settled_simulator(assignments)
            values = sim.values
            outputs.append({net: values[net] for net in self.netlist.primary_outputs})
            for record in sim.transitions_between(float("-inf"), float("inf")):
                activity_by_cell[record.cell] = activity_by_cell.get(record.cell, 0) + 1
                activity_by_type[record.cell_type] = (
                    activity_by_type.get(record.cell_type, 0) + 1
                )
            for name, value in values.items():
                net_values[name].append(value)
        return BatchResult(
            samples=len(outputs),
            outputs=outputs,
            activity_by_cell=activity_by_cell,
            activity_by_cell_type=activity_by_type,
            net_values=net_values,
        )


register_backend("event", EventBackend)
