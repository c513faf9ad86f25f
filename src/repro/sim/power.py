"""Switching-activity-based power and energy accounting.

The paper's Table I reports average power, leakage power, and (implicitly,
through throughput) energy per inference for both datapath styles.  At
gate level those quantities reduce to:

* **dynamic energy** — every committed output transition of a cell costs
  that cell's characterised switching energy (scaled by ``V²``);
* **leakage power** — the sum of per-instance leakage (scaled by the
  voltage model), independent of activity;
* **average power** — dynamic energy per operation divided by the operation
  period, plus leakage.

:class:`PowerAccountant` works from the simulator's transition log so the
numbers reflect the *actual* switching activity of the simulated workload —
which is how the dual-rail design's higher activity factor (two rails per
bit plus the return-to-spacer phase) shows up, as well as the energy saved
by early propagation when the comparator stops toggling low-order bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.circuits.library import CellLibrary
from repro.circuits.netlist import Netlist

from .simulator import GateLevelSimulator


@dataclass
class EnergyBreakdown:
    """Dynamic energy of a time window, broken down by cell type."""

    total_fj: float
    by_cell_type: Dict[str, float] = field(default_factory=dict)
    transitions: int = 0


@dataclass
class PowerReport:
    """Average power figures for a measured workload window.

    Attributes
    ----------
    dynamic_uw:
        Average dynamic (switching) power in µW.
    leakage_nw:
        Static leakage power in nW.
    total_uw:
        Dynamic power plus leakage, in µW.
    energy_per_operation_fj:
        Mean dynamic energy per operation (inference) in fJ.
    operations:
        Number of operations the window contained.
    window_ps:
        Length of the measured window in ps.
    """

    dynamic_uw: float
    leakage_nw: float
    total_uw: float
    energy_per_operation_fj: float
    operations: int
    window_ps: float


class PowerAccountant:
    """Computes energy and power from a simulator's transition log."""

    def __init__(self, netlist: Netlist, library: CellLibrary, vdd: Optional[float] = None) -> None:
        self.netlist = netlist
        self.library = library
        self.vdd = library.voltage_model.nominal_vdd if vdd is None else float(vdd)

    # ------------------------------------------------------------- leakage
    def leakage_nw(self) -> float:
        """Total leakage of every instance at the configured supply, in nW."""
        total = 0.0
        for cell in self.netlist.iter_cells():
            if self.library.has_cell(cell.cell_type):
                total += self.library.cell_leakage(cell.cell_type, vdd=self.vdd)
        return total

    # ------------------------------------------------------------- dynamic
    def energy_of_window(self, simulator: GateLevelSimulator, start: float, end: float) -> EnergyBreakdown:
        """Dynamic energy (fJ) of the simulator's transitions in ``(start, end]``.

        Each committed cell transition is priced from a per-cell energy
        table (one ``cell_energy`` per cell type at this accountant's
        supply), in commit order; cells the library does not price are
        skipped.
        """
        types = simulator.cell_types
        per_type = {
            cell_type: self.library.cell_energy(cell_type, vdd=self.vdd)
            for cell_type in set(types)
            if self.library.has_cell(cell_type)
        }
        energy = [per_type.get(cell_type) for cell_type in types]
        total = 0.0
        by_type: Dict[str, float] = {}
        count = 0
        for cell in simulator.transition_cells(start, end):
            cell_energy = energy[cell]
            if cell_energy is None:
                continue
            total += cell_energy
            cell_type = types[cell]
            by_type[cell_type] = by_type.get(cell_type, 0.0) + cell_energy
            count += 1
        return EnergyBreakdown(total_fj=total, by_cell_type=by_type, transitions=count)

    def energy_from_activity(self, activity_by_cell_type: Dict[str, int]) -> EnergyBreakdown:
        """Dynamic energy (fJ) of aggregate transition counts per cell type.

        This is how the vectorized backends' cycle-level switching
        activity (see :mod:`repro.sim.backends.bitpack`) is priced: the
        engine counts committed transitions per cell type and this method
        applies the same per-transition energies the event-driven accounting
        uses.
        """
        total = 0.0
        by_type: Dict[str, float] = {}
        count = 0
        for cell_type, transitions in activity_by_cell_type.items():
            if not self.library.has_cell(cell_type) or transitions <= 0:
                continue
            energy = self.library.cell_energy(cell_type, vdd=self.vdd) * transitions
            total += energy
            by_type[cell_type] = by_type.get(cell_type, 0.0) + energy
            count += int(transitions)
        return EnergyBreakdown(total_fj=total, by_cell_type=by_type, transitions=count)

    # -------------------------------------------------------------- reports
    def report(
        self,
        simulator: GateLevelSimulator,
        start: float,
        end: float,
        operations: int,
    ) -> PowerReport:
        """Average power over a window containing *operations* inferences.

        ``dynamic power [µW] = energy [fJ] / window [ps] * 1e3`` because
        1 fJ / 1 ps = 1 mW = 1000 µW.
        """
        if end <= start:
            raise ValueError("measurement window must have positive length")
        breakdown = self.energy_of_window(simulator, start, end)
        window = end - start
        dynamic_uw = breakdown.total_fj / window * 1e3
        leakage_nw = self.leakage_nw()
        total_uw = dynamic_uw + leakage_nw * 1e-3
        energy_per_op = breakdown.total_fj / operations if operations else 0.0
        return PowerReport(
            dynamic_uw=dynamic_uw,
            leakage_nw=leakage_nw,
            total_uw=total_uw,
            energy_per_operation_fj=energy_per_op,
            operations=operations,
            window_ps=window,
        )


def energy_per_inference_fj(report: PowerReport) -> float:
    """Convenience accessor used by the Table-I harness."""
    return report.energy_per_operation_fj
