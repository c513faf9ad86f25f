"""Characterised standard-cell libraries.

The paper synthesises the datapath onto two proprietary 65 nm libraries:

* **UMC LL** — a commercial low-leakage library, minimally sized, operated at
  a nominal 1.2 V, TT corner;
* **FULL DIFFUSION** — a custom library aimed at high-performance
  *subthreshold* operation, using a full-diffusion sizing strategy with
  non-minimum-length transistors.

Neither library is available, so this module provides synthetic
characterisations (:func:`umc_ll_library` and :func:`full_diffusion_library`)
whose *relative* properties reproduce what the paper relies on:

* UMC LL cells are small and fast at nominal voltage but not designed to
  operate deep below threshold;
* FULL DIFFUSION cells are roughly twice the area, slightly slower at
  nominal voltage, leak less per unit drive, and stay functional down to
  0.25 V;
* in UMC LL the C-element (the dual-rail latch) maps onto a single complex
  gate (AOI32-based), whereas FULL DIFFUSION lacks AOI32 cells so the
  C-element is built from four simple gates — making it larger and slower,
  exactly the asymmetry called out in Section IV-D of the paper.

Each :class:`CellModel` carries area, input capacitance, intrinsic delay,
load-dependent delay, switching energy and leakage.  Delay/energy/leakage
scaling with supply voltage is provided by :class:`VoltageModel` (an
alpha-power-law strong-inversion model blended with an exponential
subthreshold model), which is what produces the Figure-3 latency curve.
"""

from __future__ import annotations

import hashlib
import json
import math
import weakref
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Optional

from .gates import GATE_REGISTRY, gate_spec


@dataclass(frozen=True)
class CellModel:
    """Characterisation data for one library cell.

    Attributes
    ----------
    name:
        Cell type name (must exist in :data:`repro.circuits.gates.GATE_REGISTRY`).
    area:
        Cell area in µm².
    input_cap:
        Input pin capacitance in fF (assumed equal for all pins).
    intrinsic_delay:
        Unloaded pin-to-output delay in ps at the library's nominal voltage.
    load_delay:
        Additional delay in ps per fF of output load.
    switching_energy:
        Energy per output transition in fJ at nominal voltage (internal +
        output switching).
    leakage:
        Static leakage power in nW at nominal voltage.
    """

    name: str
    area: float
    input_cap: float
    intrinsic_delay: float
    load_delay: float
    switching_energy: float
    leakage: float


@dataclass(frozen=True)
class VoltageModel:
    """Gate-delay / energy / leakage scaling with supply voltage.

    The delay model is the standard alpha-power law in strong inversion
    blended with an exponential subthreshold current model::

        I_on(V) ∝ (V - Vth)^alpha                  for V ≫ Vth
        I_on(V) ∝ I0 · exp((V - Vth) / (n·v_T))    for V ≲ Vth
        delay(V) ∝ C · V / I_on(V)

    Attributes
    ----------
    nominal_vdd:
        Supply at which the cell models are characterised (1.2 V here).
    vth:
        Effective threshold voltage of the technology corner.
    alpha:
        Velocity-saturation exponent (≈1.3 for 65 nm).
    subthreshold_slope:
        ``n · v_T`` in volts (≈0.035–0.045 V at room temperature).
    min_functional_vdd:
        Lowest supply at which the library's cells still switch correctly.
        The dual-rail circuit remains *logically* correct below the nominal
        range because it is self-timed; this limit models transistor-level
        functionality of the cells themselves.
    """

    nominal_vdd: float = 1.2
    vth: float = 0.45
    alpha: float = 1.3
    subthreshold_slope: float = 0.04
    min_functional_vdd: float = 0.5

    def _drive_current(self, vdd: float) -> float:
        """Relative on-current at *vdd* (1.0 at ``nominal_vdd``)."""
        def raw(v: float) -> float:
            overdrive = v - self.vth
            # Smooth blend: strong inversion when the overdrive is well above
            # a few subthreshold slopes, exponential below.
            knee = 2.0 * self.subthreshold_slope
            if overdrive > knee:
                strong = overdrive ** self.alpha
                return strong
            # Subthreshold / near-threshold branch, continuous at the knee.
            strong_at_knee = knee ** self.alpha
            return strong_at_knee * math.exp((overdrive - knee) / self.subthreshold_slope)

        return raw(vdd) / raw(self.nominal_vdd)

    def delay_factor(self, vdd: float) -> float:
        """Multiplicative gate-delay factor at *vdd* (1.0 at nominal).

        ``delay ∝ C·V / I_on(V)``; the capacitance term is voltage
        independent at this abstraction level.  The factor is memoized per
        supply point — program compilation and the timing engines price
        thousands of cells at the same handful of voltages.
        """
        if vdd <= 0:
            raise ValueError("supply voltage must be positive")
        cache = self.__dict__.get("_delay_factor_memo")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_delay_factor_memo", cache)
        factor = cache.get(vdd)
        if factor is None:
            current = self._drive_current(vdd)
            nominal_current = 1.0
            factor = (vdd / self.nominal_vdd) * (nominal_current / current)
            cache[vdd] = factor
        return factor

    def energy_factor(self, vdd: float) -> float:
        """Dynamic-energy factor: ``E ∝ C·V²``."""
        return (vdd / self.nominal_vdd) ** 2

    def leakage_factor(self, vdd: float) -> float:
        """Leakage-power factor: DIBL-dominated, roughly exponential in V."""
        dibl = 0.08  # V/V, typical 65 nm
        return (vdd / self.nominal_vdd) * math.exp(
            dibl * (vdd - self.nominal_vdd) / self.subthreshold_slope
        )

    def is_functional(self, vdd: float) -> bool:
        """Whether the library's cells still operate at *vdd*."""
        return vdd >= self.min_functional_vdd


class CellLibrary:
    """A named collection of :class:`CellModel` with a :class:`VoltageModel`.

    Parameters
    ----------
    name:
        Library name used in reports (``"UMC LL"`` / ``"FULL DIFFUSION"``).
    cells:
        Mapping from cell type name to its :class:`CellModel`.
    voltage_model:
        Delay/energy/leakage scaling model for the technology.
    description:
        Free-text description used in report headers.
    """

    def __init__(
        self,
        name: str,
        cells: Dict[str, CellModel],
        voltage_model: VoltageModel,
        description: str = "",
    ) -> None:
        unknown = [c for c in cells if c not in GATE_REGISTRY]
        if unknown:
            raise KeyError(f"library {name!r} characterises unknown cell types: {unknown}")
        self.name = name
        self.cells = dict(cells)
        self.voltage_model = voltage_model
        self.description = description

    # ----------------------------------------------------------- cell access
    def has_cell(self, cell_type: str) -> bool:
        """``True`` when the library characterises *cell_type*."""
        return cell_type in self.cells

    def cell(self, cell_type: str) -> CellModel:
        """Return the :class:`CellModel` for *cell_type*.

        Raises
        ------
        KeyError
            If the library does not characterise the cell type.
        """
        try:
            return self.cells[cell_type]
        except KeyError:
            raise KeyError(
                f"cell type {cell_type!r} is not available in library {self.name!r}"
            )

    def available_cells(self) -> Iterable[str]:
        """Names of all characterised cell types."""
        return sorted(self.cells)

    # --------------------------------------------------------------- timing
    def cell_delay(self, cell_type: str, load_caps: float = 0.0, vdd: Optional[float] = None) -> float:
        """Pin-to-output delay of *cell_type* in ps.

        Parameters
        ----------
        load_caps:
            Total capacitive load on the output in fF (sum of fanout input
            capacitances).
        vdd:
            Supply voltage; defaults to the library's nominal voltage.
        """
        model = self.cell(cell_type)
        delay = model.intrinsic_delay + model.load_delay * load_caps
        if vdd is None:
            return delay
        return delay * self.voltage_model.delay_factor(vdd)

    def cell_energy(self, cell_type: str, vdd: Optional[float] = None) -> float:
        """Energy per output transition in fJ (optionally scaled to *vdd*)."""
        model = self.cell(cell_type)
        if vdd is None:
            return model.switching_energy
        return model.switching_energy * self.voltage_model.energy_factor(vdd)

    def cell_leakage(self, cell_type: str, vdd: Optional[float] = None) -> float:
        """Static leakage of one instance in nW (optionally scaled to *vdd*)."""
        model = self.cell(cell_type)
        if vdd is None:
            return model.leakage
        return model.leakage * self.voltage_model.leakage_factor(vdd)

    def is_sequential_cell(self, cell_type: str) -> bool:
        """Sequential cells contribute to the Table-I "sequential area" column."""
        return gate_spec(cell_type).sequential

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CellLibrary({self.name!r}, {len(self.cells)} cells)"


#: Identity-keyed fingerprint memo.  Libraries are built once by their
#: factory functions and then treated as read-only, so the digest of a
#: given instance never changes; the cell-count guard still invalidates
#: the common grow-after-fingerprint mistake.
_library_fingerprint_memo = weakref.WeakKeyDictionary()


def library_fingerprint(library: CellLibrary) -> str:
    """Deterministic digest of a library's full characterisation.

    Covers every cell model field and the voltage model, so any edit to the
    library — areas, delays, energies, leakage, supply behaviour — moves the
    fingerprint.  Shared by the DSE result store
    (:mod:`repro.explore.store`) as the library ingredient of its
    content-hash keys and by :class:`~repro.sim.program.CompiledProgram`
    as the identity of the library it was compiled against.  Memoized per
    library instance (libraries are build-once objects); adding or removing
    cells invalidates the memo.
    """
    cached = _library_fingerprint_memo.get(library)
    if cached is not None and cached[0] == len(library.cells):
        return cached[1]
    payload = {
        "name": library.name,
        "cells": {
            name: asdict(model) for name, model in sorted(library.cells.items())
        },
        "voltage_model": asdict(library.voltage_model),
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    _library_fingerprint_memo[library] = (len(library.cells), digest)
    return digest


def _scaled_cells(base: Dict[str, tuple], area_scale: float, delay_scale: float,
                  energy_scale: float, leak_scale: float, cap_scale: float) -> Dict[str, CellModel]:
    """Apply technology scaling factors to a base characterisation table."""
    cells = {}
    for name, (area, cap, d0, dl, energy, leak) in base.items():
        cells[name] = CellModel(
            name=name,
            area=round(area * area_scale, 3),
            input_cap=round(cap * cap_scale, 4),
            intrinsic_delay=round(d0 * delay_scale, 3),
            load_delay=round(dl * delay_scale, 4),
            switching_energy=round(energy * energy_scale, 4),
            leakage=round(leak * leak_scale, 5),
        )
    return cells


# Base characterisation (loosely modelled on a 65 nm LL process at 1.2 V, TT):
#   name: (area µm², input cap fF, intrinsic delay ps, load delay ps/fF,
#          switching energy fJ, leakage nW)
_BASE_CELLS: Dict[str, tuple] = {
    "INV":   (1.3, 1.6, 14.0, 3.2, 0.55, 0.020),
    "BUF":   (1.8, 1.6, 26.0, 2.6, 0.80, 0.028),
    "AND2":  (2.6, 1.7, 34.0, 3.0, 1.00, 0.040),
    "AND3":  (3.1, 1.8, 40.0, 3.1, 1.20, 0.048),
    "AND4":  (3.6, 1.9, 46.0, 3.2, 1.40, 0.056),
    "AND8":  (6.2, 2.0, 62.0, 3.4, 2.20, 0.095),
    "OR2":   (2.6, 1.7, 36.0, 3.0, 1.00, 0.040),
    "OR3":   (3.1, 1.8, 42.0, 3.1, 1.20, 0.048),
    "OR4":   (3.6, 1.9, 48.0, 3.2, 1.40, 0.056),
    "OR8":   (6.2, 2.0, 66.0, 3.4, 2.20, 0.095),
    "NAND2": (2.0, 1.7, 22.0, 3.4, 0.80, 0.032),
    "NAND3": (2.6, 1.8, 28.0, 3.6, 1.00, 0.040),
    "NAND4": (3.2, 1.9, 34.0, 3.8, 1.20, 0.048),
    "NOR2":  (2.0, 1.7, 26.0, 3.6, 0.80, 0.032),
    "NOR3":  (2.6, 1.8, 34.0, 3.8, 1.00, 0.040),
    "NOR4":  (3.2, 1.9, 42.0, 4.0, 1.20, 0.048),
    "AO21":  (2.9, 1.8, 38.0, 3.4, 1.10, 0.042),
    "AO22":  (3.5, 1.9, 42.0, 3.6, 1.30, 0.050),
    "OA21":  (2.9, 1.8, 38.0, 3.4, 1.10, 0.042),
    "OA22":  (3.5, 1.9, 42.0, 3.6, 1.30, 0.050),
    "AOI21": (2.6, 1.8, 30.0, 3.6, 1.00, 0.038),
    "AOI22": (3.2, 1.9, 34.0, 3.8, 1.20, 0.046),
    "AOI32": (3.9, 2.0, 38.0, 4.0, 1.40, 0.054),
    "OAI21": (2.6, 1.8, 30.0, 3.6, 1.00, 0.038),
    "OAI22": (3.2, 1.9, 34.0, 3.8, 1.20, 0.046),
    "OAI32": (3.9, 2.0, 38.0, 4.0, 1.40, 0.054),
    "MAJ3":  (4.2, 1.9, 44.0, 3.6, 1.50, 0.058),
    "XOR2":  (3.9, 2.1, 48.0, 3.8, 1.60, 0.060),
    "XNOR2": (3.9, 2.1, 48.0, 3.8, 1.60, 0.060),
    "TIE0":  (0.7, 0.0, 0.0, 0.0, 0.00, 0.008),
    "TIE1":  (0.7, 0.0, 0.0, 0.0, 0.00, 0.008),
    "DFF":   (9.1, 1.9, 120.0, 3.4, 3.20, 0.140),
    # C-elements: in UMC LL a 2-input C-element maps onto a single complex
    # gate (AOI32 plus feedback), in FULL DIFFUSION it needs four simple
    # gates (see full_diffusion_library below, which overrides these).
    "C2":    (4.2, 1.9, 52.0, 3.8, 1.70, 0.070),
    "C3":    (5.4, 2.0, 60.0, 4.0, 2.00, 0.085),
}


def umc_ll_library() -> CellLibrary:
    """Synthetic stand-in for the commercial UMC 65 nm low-leakage library.

    Minimally sized cells, fast at the nominal 1.2 V supply, low leakage,
    but not characterised for operation much below ~0.5 V.
    """
    cells = _scaled_cells(
        _BASE_CELLS,
        area_scale=1.0,
        delay_scale=1.0,
        energy_scale=1.0,
        leak_scale=1.0,
        cap_scale=1.0,
    )
    voltage = VoltageModel(
        nominal_vdd=1.2,
        vth=0.45,
        alpha=1.30,
        subthreshold_slope=0.040,
        min_functional_vdd=0.50,
    )
    return CellLibrary(
        name="UMC LL",
        cells=cells,
        voltage_model=voltage,
        description=(
            "Synthetic superthreshold low-leakage 65 nm library "
            "(stand-in for the commercial UMC LL library used in the paper)."
        ),
    )


def full_diffusion_library() -> CellLibrary:
    """Synthetic stand-in for the custom FULL DIFFUSION subthreshold library.

    Full-diffusion sizing with non-minimum-length transistors: roughly twice
    the area per cell, slightly slower at nominal voltage, lower relative
    leakage, and functional down to 0.25 V.  The library lacks AOI32 cells,
    so the dual-rail C-element latch is composed of four simple gates —
    modelled here by a larger, slower C2/C3 characterisation.
    """
    base = dict(_BASE_CELLS)
    # No AOI32/OAI32 in this library (the paper notes the missing AOI32 cell).
    del base["AOI32"]
    del base["OAI32"]
    cells = _scaled_cells(
        base,
        area_scale=1.9,
        delay_scale=1.15,
        energy_scale=2.1,
        leak_scale=0.50,
        cap_scale=1.6,
    )
    # C-element built from four simple gates: bigger, slower, leakier than a
    # single complex gate implementation.
    for cname, scale_area, scale_delay in (("C2", 1.75, 1.35), ("C3", 1.75, 1.35)):
        model = cells[cname]
        cells[cname] = CellModel(
            name=cname,
            area=round(model.area * scale_area, 3),
            input_cap=model.input_cap,
            intrinsic_delay=round(model.intrinsic_delay * scale_delay, 3),
            load_delay=model.load_delay,
            switching_energy=round(model.switching_energy * 1.4, 4),
            leakage=round(model.leakage * 1.6, 5),
        )
    voltage = VoltageModel(
        nominal_vdd=1.2,
        vth=0.34,
        alpha=1.35,
        subthreshold_slope=0.042,
        min_functional_vdd=0.25,
    )
    return CellLibrary(
        name="FULL DIFFUSION",
        cells=cells,
        voltage_model=voltage,
        description=(
            "Synthetic subthreshold-capable 65 nm library with full-diffusion "
            "sizing (stand-in for the custom library of Morris et al.)."
        ),
    )


def default_libraries() -> Dict[str, CellLibrary]:
    """Both Table-I libraries keyed by name."""
    libs = [umc_ll_library(), full_diffusion_library()]
    return {lib.name: lib for lib in libs}
