"""Vectorized data-dependent timing engine on the grouped plan.

The vectorized backends answer *what* every net settles to, orders of
magnitude faster than the event simulator — but every timing number in the
paper's artefacts (Table I latency columns, the Figure-3 curve, the latency
distributions, the DSE latency/energy axes) is about *when*.  This module
closes that gap: it computes **per-sample arrival times** for every net of a
compiled program with level-vectorized NumPy sweeps, so a 10k-operand
latency/energy measurement costs a handful of grouped passes instead of 10k
event-driven handshake cycles.

Measurement model
-----------------
One dual-rail handshake cycle has two monotonic phases, each computed as one
levelized sweep:

* **spacer→valid** — inputs leave the spacer word at ``t = 0``; every net
  that changes does so exactly once (paper Requirement 2: the mapped
  netlist is unate, so settling is monotonic and glitch-free);
* **valid→spacer** — inputs return to spacer at ``t = 0`` of the reset
  phase; again every toggled net resets exactly once.

Within a phase, a net's arrival is the time of that single committed
transition, and ``0.0`` for nets that do not change.  A cell's output
arrival is its **determining input's** arrival plus the cell's delay
(:func:`repro.sim.sta.cell_output_delay` — the same load/voltage model STA
and the event simulator use):

========================  ====================================================
final output value        determining input (early propagation)
========================  ====================================================
controlling (e.g. AND→0)  the **first** input to reach the controlling value
                          (``min`` over arrivals) — the mechanism the paper's
                          comparator exploits
non-controlling           the **last** input to reach its final value
                          (``max`` over arrivals) — the worst case
MAJ3 → v                  the **second** input to reach ``v``
C-element → v             the **last** input to reach ``v`` (C waits for all)
XOR → v                   the last transitioning input (settle time; exact
                          when at most one input toggles — always true in
                          unate-mapped dual-rail netlists, which carry no
                          XOR cells at all)
========================  ====================================================

These rules reproduce the event-driven scheduler's semantics for monotonic
netlists: the event simulator commits a cell's output one delay after the
input event that flipped its evaluation, and under single-transition
settling that input is precisely the determining input above.  Arrivals are
built from the same pairwise delay additions the event queue performs, but
the event simulator accumulates *absolute* timestamps and subtracts the
phase origin afterwards, so relative measurements differ by float
re-association noise (~1e-14 relative in practice; the equivalence tests
assert ``rtol=1e-9``, and exact equality on a single gate where both
origins are zero).

Execution on the grouped plan
-----------------------------
The engine runs on the per-level, per-tag gather/scatter plan of the
program's memoized bitpack kernel (:func:`repro.sim.kernels.fused_kernel`,
the one the functional backends execute).  One run:

1. settles the valid word and the spacer word once each through the
   bitpack packing (:func:`~repro.sim.backends.bitpack.pack_planes`) and
   that kernel, then decodes each once into a ``(nets, samples)`` or
   ``(nets, 1)`` ``uint8`` matrix (2 = X);
2. derives the toggle mask ``C = known & (valid != rest)`` over the op
   outputs, shared by both phases, by the activity counts and by the
   energy;
3. sweeps each phase level by level.  Every group gathers its
   ``(cells, arity, samples)`` final-value and arrival stacks and one
   vectorized rule per dispatch tag yields the output arrival,
   ``where(C, t + delay, 0)``:

   ======================  ==================================================
   tag                     rule for ``t``
   ======================  ==================================================
   ``and``/``nand``,       ``min`` over inputs at the controlling value (0 /
   ``or``/``nor``          1) when any input is there, else ``max``
   ``xor``/``xnor``, ``c`` ``max``
   ``maj3``                second-earliest input agreeing with the output
   ``inv``/``buf``         the input's arrival
   AOI/OAI/AO/OA           each multi-pin term gets the AND/OR rule above,
                           masked by its own start/final values
                           (:func:`_b_and` / :func:`_b_or`); the outer
                           OR/AND rule then runs over the terms
   ======================  ==================================================

Memory layout: the two phases' arrival matrices (one ``(2, ops + 1,
samples)`` ``float64`` allocation) hold one row per **op output** plus one
shared zero row that primary inputs, constants and undriven nets read (they
never transition inside the netlist).  The toggle mask is kept bit-packed
along the sample axis.  The sample axis is tiled into
:data:`SAMPLE_BLOCK`-column blocks, so group gathers and the energy
accumulation stay block-sized; nothing of size ``ops × samples`` is ever
built in ``float64`` beyond the two arrival matrices themselves.

Energy
------
A cell whose valid-phase value differs from its spacer rest value toggles
twice per handshake (out and back).  Per-sample switching energy is
therefore ``2 × cell_energy(type, vdd)`` summed over the toggling cells of
that sample — exactly the activity the functional backends count and
:class:`~repro.sim.power.PowerAccountant` prices, and (because dual-rail
settling is glitch-free) exactly the event simulator's committed transition
count as well.

Entry points
------------
Construct through the vectorized backends'
:meth:`~repro.sim.backends.bitpack.BitpackBackend.run_timed` (which the
``batch`` view inherits) — or directly
via :class:`TimedProgram` when reusing one compiled program across stimulus
sets.  Results come back as a :class:`TimedBatchResult`, whose per-net
planes are read-only :class:`~collections.abc.Mapping` views over the
engine's matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.circuits.gates import LogicValue
from repro.circuits.library import CellLibrary
from repro.circuits.netlist import Netlist
from repro.obs import trace as _trace

from ..kernels import OpGroup, PlaneMatrixView, _activity_dicts, fused_kernel
from ..program import CompiledProgram, compile_program
from .base import BackendError
from .bitpack import X, pack_planes, decode_value_matrix

#: Sample columns per block of the arrival sweeps and the energy pass.
SAMPLE_BLOCK = 512

#: Sentinel for "cannot determine the output" in controlling-value minima;
#: always masked out before it can reach a result (the corresponding sample
#: has no output transition).
_NEVER = np.float64(np.inf)

_COMPLEX_TAGS = ("aoi", "oai", "ao", "oa")


def _b_and(stack: np.ndarray) -> np.ndarray:
    """Three-valued AND over axis 1: any 0 → 0, all 1 → 1, else X."""
    return np.where(
        (stack == 0).any(axis=1), np.uint8(0),
        np.where((stack == 1).all(axis=1), np.uint8(1), X),
    )


def _b_or(stack: np.ndarray) -> np.ndarray:
    """Three-valued OR over axis 1: any 1 → 1, all 0 → 0, else X."""
    return np.where(
        (stack == 1).any(axis=1), np.uint8(1),
        np.where((stack == 0).all(axis=1), np.uint8(0), X),
    )


def _changed(start: np.ndarray, final: np.ndarray) -> np.ndarray:
    """Samples whose value actually transitions this phase (both values known)."""
    return (start != final) & (start != X) & (final != X)


def _early(finals: np.ndarray, arrivals: np.ndarray, controlling: int) -> np.ndarray:
    """AND/OR-shaped arrival over ``(cells, arity, samples)`` stacks.

    The earliest input settling to the *controlling* value decides the
    output when any input does; otherwise the output waits for the latest
    input.
    """
    hit = finals == controlling
    first = np.where(hit, arrivals, _NEVER).min(axis=1)
    return np.where(hit.any(axis=1), first, arrivals.max(axis=1))


def _second_arrival_at(
    finals: np.ndarray, arrivals: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Second-earliest arrival among three inputs settling to *values*.

    The MAJ3 rule: the output flips to ``v`` when the second input reaches
    ``v``.  Inputs not settling to ``v`` are excluded; inputs already at
    ``v`` at phase start carry arrival ``0.0`` and count immediately.
    """
    agree = np.where(finals == values[:, None], arrivals, _NEVER)
    a, b, c = agree[:, 0], agree[:, 1], agree[:, 2]
    return np.minimum(
        np.minimum(np.maximum(a, b), np.maximum(a, c)), np.maximum(b, c)
    )


def _complex_rule(pin_groups: Tuple[int, ...], inner_and: bool) -> Callable:
    """Arrival rule of an AOI/OAI/AO/OA group (output inversion is timing-neutral)."""
    inner, inner_controlling = (_b_and, 0) if inner_and else (_b_or, 1)

    def rule(finals, arrivals, starts, outs):
        """Masked inner-term arrivals, then the outer rule across the terms."""
        term_finals: List[np.ndarray] = []
        term_arrivals: List[np.ndarray] = []
        lo = 0
        for width in pin_groups:
            hi = lo + width
            if width == 1:
                term_finals.append(finals[:, lo])
                term_arrivals.append(arrivals[:, lo])
            else:
                final = inner(finals[:, lo:hi])
                t = _early(finals[:, lo:hi], arrivals[:, lo:hi], inner_controlling)
                term_finals.append(final)
                term_arrivals.append(
                    np.where(_changed(inner(starts[:, lo:hi]), final), t, 0.0)
                )
            lo = hi
        return _early(
            np.stack(term_finals, axis=1),
            np.stack(term_arrivals, axis=1),
            1 - inner_controlling,
        )

    return rule


def _arrival_rule(group: OpGroup) -> Callable:
    """``(finals, arrivals, starts, outs) -> t`` for *group* (see the module table).

    *starts* (the inputs' phase-start values) is passed only to the complex
    gates, *outs* (the outputs' settled values) only to MAJ3; the other
    rules receive ``None``.
    """
    tag = group.tag
    if tag in ("inv", "buf"):
        return lambda finals, arrivals, starts, outs: arrivals[:, 0]
    if tag in ("and", "nand"):
        return lambda finals, arrivals, starts, outs: _early(finals, arrivals, 0)
    if tag in ("or", "nor"):
        return lambda finals, arrivals, starts, outs: _early(finals, arrivals, 1)
    if tag in ("xor", "xnor", "c"):
        return lambda finals, arrivals, starts, outs: arrivals.max(axis=1)
    if tag == "maj3":
        return lambda finals, arrivals, starts, outs: _second_arrival_at(
            finals, arrivals, outs
        )
    return _complex_rule(group.pin_groups, inner_and=tag in ("aoi", "ao"))


@dataclass(frozen=True)
class _TimedGroup:
    """One plan group bound for the timed engine."""

    group: OpGroup
    #: Arrival rule (:func:`_arrival_rule`).
    rule: Callable
    #: ``(cells, arity)`` arrival-matrix rows of the inputs (the shared zero
    #: row for nets no op drives).
    in_rows: np.ndarray
    #: ``(cells,)`` arrival-matrix rows of the outputs (= op indices).
    out_rows: np.ndarray
    #: ``(cells, 1)`` per-member delays, variation applied.
    delay: np.ndarray
    #: Whether the rule needs the phase-start values (complex gates only).
    needs_start: bool
    #: Whether the rule needs the outputs' settled values (MAJ3 only).
    needs_out: bool


class _ArrivalView(PlaneMatrixView):
    """Read-only ``net → (samples,) arrival row`` view over one phase's matrix."""

    __slots__ = ("_rows",)

    def __init__(self, matrix: np.ndarray, index: Dict[str, int],
                 rows: np.ndarray) -> None:
        super().__init__(matrix, index)
        self._rows = rows

    def __getitem__(self, net: str) -> np.ndarray:
        """The arrival row of *net* (the shared zero row if no op drives it)."""
        return self._matrix[self._rows[self._index[net]]]

    def latest(self, nets: Optional[Iterable[str]] = None) -> np.ndarray:
        """Per-sample maximum over *nets* (default: every net) and zero."""
        if nets is None:
            return self._matrix.max(axis=0)
        rows = [self._rows[self._index[net]] for net in nets]
        rows.append(self._matrix.shape[0] - 1)  # the shared zero row
        return self._matrix[rows].max(axis=0)


class _SpacerValues(PlaneMatrixView):
    """Read-only ``net → LogicValue`` view over the settled ``(nets, 1)`` spacer matrix."""

    __slots__ = ()

    def __getitem__(self, net: str) -> LogicValue:
        """The rest value of *net* (``None`` for X)."""
        value = int(self._matrix[self._index[net], 0])
        return None if value == X else value


@dataclass
class TimedBatchResult:
    """Per-sample timing, values and energy of a batch of handshake cycles.

    The per-net planes are read-only :class:`~collections.abc.Mapping`
    views over the engine's matrices (row views, no per-net copies); every
    plane is a full ``(samples,)`` row.

    Attributes
    ----------
    samples:
        Number of operands (handshake cycles) evaluated.
    values:
        Valid-phase settled value plane per net (``uint8``; 2 encodes X) —
        identical net-for-net to the functional backends' ``values``.
    spacer_values:
        Spacer-phase settled value per net (scalar — the rest state is
        sample-independent).
    arrival_valid:
        Per-sample spacer→valid arrival time (ps) of every net; ``0.0``
        for samples where the net holds its spacer value.
    arrival_reset:
        Per-sample valid→spacer arrival time (ps), measured from the
        instant the inputs return to spacer.
    energy_per_sample_fj:
        Per-sample dynamic switching energy of one full handshake cycle
        (two transitions per toggling cell, priced at the engine's supply).
    activity_by_cell / activity_by_cell_type:
        Batch-total committed transition counts — bit-identical to the
        functional backends' spacer-baseline activity accounting.
    vdd:
        Supply voltage the delays and energies were computed at.
    """

    samples: int
    values: Mapping[str, np.ndarray]
    spacer_values: Mapping[str, LogicValue]
    arrival_valid: Mapping[str, np.ndarray]
    arrival_reset: Mapping[str, np.ndarray]
    energy_per_sample_fj: np.ndarray
    activity_by_cell: Dict[str, int] = field(default_factory=dict)
    activity_by_cell_type: Dict[str, int] = field(default_factory=dict)
    vdd: float = 0.0

    def _phase(self, phase: str) -> _ArrivalView:
        if phase == "valid":
            return self.arrival_valid
        if phase == "reset":
            return self.arrival_reset
        raise ValueError(f"unknown phase {phase!r}; expected 'valid' or 'reset'")

    def arrival_of(self, net: str, phase: str = "valid") -> np.ndarray:
        """Arrival plane of *net*, a read-only ``(samples,)`` array."""
        return self._phase(phase)[net]

    def max_arrival(self, nets: Sequence[str], phase: str = "valid") -> np.ndarray:
        """Per-sample latest arrival over *nets* — e.g. the output rails.

        With ``phase="valid"`` and the circuit's output rails this is the
        paper's per-operand spacer→valid latency ``t(S→V)``; with
        ``phase="reset"`` it is the output reset time ``t(V→S)``.
        """
        return self._phase(phase).latest(nets)

    def settle_time(self, phase: str = "valid") -> np.ndarray:
        """Per-sample time of the last transition anywhere in the netlist.

        The valid-phase settle time is when the event-driven environment
        would apply the spacer (it settles fully before moving on); the
        reset-phase settle time is the paper's internal reset time that the
        grace period ``td`` must cover.
        """
        return self._phase(phase).latest()

    @property
    def transitions(self) -> int:
        """Total committed transitions across the batch (both phases)."""
        return sum(self.activity_by_cell_type.values())


def backend_run_timed(
    backend,
    inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
    spacer: Mapping[str, int],
    delay_variation: Optional[Dict[str, float]] = None,
) -> "TimedBatchResult":
    """Shared ``run_timed`` implementation for the vectorized backends.

    Lazily compiles (and caches on *backend*, keyed by the delay-variation
    assignment) one :class:`TimedProgram` per configuration.
    """
    key = tuple(sorted((delay_variation or {}).items()))
    cache = getattr(backend, "_timed_programs", None)
    if cache is None:
        cache = backend._timed_programs = {}
    program = cache.get(key)
    if program is None:
        compiled = getattr(backend, "program", None)
        if compiled is not None and compiled.characterized:
            # The backend's CompiledProgram already carries the resolved
            # delay/energy model — no netlist re-walk, works even for
            # backends constructed from a cached program with no netlist.
            program = TimedProgram.from_program(
                compiled, delay_variation=delay_variation
            )
        elif backend.netlist is not None:
            program = TimedProgram(
                backend.netlist, backend.library, vdd=backend.vdd,
                delay_variation=delay_variation,
            )
        else:
            raise BackendError("the timed engine requires a characterised library")
        cache[key] = program
    return program.run(inputs, spacer)


class TimedProgram:
    """A program compiled for vectorized per-sample timing evaluation.

    Compiles once (levelization + per-cell delay resolution) and then runs
    any number of stimulus batches through :meth:`run`.  The vdd handling
    mirrors :class:`~repro.sim.simulator.GateLevelSimulator`: the supply
    defaults to the library nominal and non-functional supplies are
    rejected, because delays below the functional floor are meaningless.

    Parameters
    ----------
    netlist:
        Combinational (levelizable) netlist; C-elements allowed, flip-flops
        rejected — the synchronous baseline's latency is its STA clock
        period, not a data-dependent quantity.
    library:
        Characterised cell library supplying delays and energies (required,
        unlike the purely functional backends).
    vdd:
        Supply voltage; defaults to the library nominal.  With *program*
        it may only restate the program's own supply (delays and energies
        are baked in at compile time), anything else raises
        :class:`~repro.sim.backends.base.BackendError`.
    delay_variation:
        Optional per-instance delay multipliers, matching the event
        simulator's and STA's parameter of the same name.  Every multiplier
        must be finite and positive.
    program:
        Alternative construction from a characterised
        :class:`~repro.sim.program.CompiledProgram` (see
        :meth:`from_program`): the artifact already carries the base
        delay/energy model, so no netlist or library is needed.
    """

    def __init__(
        self,
        netlist: Optional[Netlist] = None,
        library: Optional[CellLibrary] = None,
        vdd: Optional[float] = None,
        delay_variation: Optional[Dict[str, float]] = None,
        program: Optional[CompiledProgram] = None,
    ) -> None:
        if program is None:
            if library is None:
                raise BackendError("the timed engine requires a characterised library")
            if netlist is None:
                raise BackendError("the timed engine needs a netlist= or program=")
            supply = (
                float(vdd) if vdd is not None else library.voltage_model.nominal_vdd
            )
            if not library.voltage_model.is_functional(supply):
                raise BackendError(
                    f"library {library.name!r} is not functional at {supply:.2f} V; "
                    "timed results would be meaningless"
                )
            program = compile_program(netlist, library, vdd=supply)
        elif not program.characterized:
            raise BackendError(
                "the timed engine requires a characterised CompiledProgram "
                "(compiled with a library functional at the program's supply)"
            )
        elif vdd is not None and float(vdd) != program.vdd:
            raise BackendError(
                f"vdd={float(vdd):.3f} V conflicts with the program's supply "
                f"{program.vdd:.3f} V; recompile the program at that supply"
            )
        variation = dict(delay_variation or {})
        for cell, factor in variation.items():
            if not (isinstance(factor, (int, float, np.number))
                    and math.isfinite(factor) and factor > 0):
                raise BackendError(
                    f"delay_variation[{cell!r}] = {factor!r}: multipliers must be "
                    "finite and positive"
                )
        self.netlist = netlist
        self.library = library
        self.vdd = program.vdd
        #: The backend-neutral compile artifact this engine executes.
        self.program = program
        delays = np.array([op.delay_ps for op in program.ops], dtype=np.float64)
        if variation:
            delays *= [variation.get(op.cell_name, 1.0) for op in program.ops]
        self._delays = delays
        #: Energy of one handshake (two transitions) per op, op order.
        self._energies = 2.0 * np.array(
            [op.energy_fj for op in program.ops], dtype=np.float64
        )
        #: ``(kernel, arrival row per net row, levels of _TimedGroup)``,
        #: bound inside the first run's ``timed.run`` span.
        self._bound = None

    @classmethod
    def from_program(
        cls,
        program: CompiledProgram,
        delay_variation: Optional[Dict[str, float]] = None,
    ) -> "TimedProgram":
        """Timed engine over a precompiled characterised program.

        Per-instance *delay_variation* multipliers are applied on top of the
        artifact's base delays — exactly the factorisation the netlist
        construction path performs, so both paths produce bit-identical
        engines for the same inputs.
        """
        return cls(program=program, delay_variation=delay_variation)

    def _bind(self):
        """Bind every group of the plan of the program's (memoized) kernel."""
        kernel = fused_kernel(self.program)
        plan = kernel.plan
        # Arrival-matrix row per net row: op outputs in op order, every
        # other net on the shared zero row after them.
        rows = np.full(plan.num_nets, plan.num_cells, dtype=np.intp)
        rows[plan.out_idx] = np.arange(plan.num_cells, dtype=np.intp)
        levels = tuple(
            tuple(
                _TimedGroup(
                    group=group,
                    rule=_arrival_rule(group),
                    in_rows=rows[group.in_idx],
                    out_rows=rows[group.out_idx],
                    delay=self._delays[rows[group.out_idx]][:, None],
                    needs_start=group.tag in _COMPLEX_TAGS,
                    needs_out=group.tag == "maj3",
                )
                for group in level
            )
            for level in plan.levels
        )
        return kernel, rows, levels

    def _settle(self, kernel, inputs: Mapping) -> Tuple[np.ndarray, int]:
        """The settled ``(nets, samples)`` value matrix of *inputs* (2 = X).

        Packs and settles through the bitpack kernel, then unpacks once.
        """
        ones, zeros, samples = pack_planes(
            kernel.plan, self.program.constants, inputs
        )
        kernel.execute(ones, zeros)
        return decode_value_matrix(ones, zeros, samples), samples

    def _toggles(self, plan, valid: np.ndarray,
                 rest: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The toggle mask ``C``, per-op toggle counts and per-sample energy.

        ``C`` is computed block by block and kept bit-packed along the
        sample axis (``(ops, ceil(samples / 8))`` bytes); the sweeps unpack
        one block at a time.
        """
        samples = valid.shape[1]
        packed = np.empty((plan.num_cells, (samples + 7) // 8), dtype=np.uint8)
        counts = np.zeros(plan.num_cells, dtype=np.intp)
        energy = np.empty(samples, dtype=np.float64)
        rest_out = rest[plan.out_idx]
        known_rest = rest_out != X
        per_toggle = self._energies[:, None]
        for lo in range(0, samples, SAMPLE_BLOCK):
            cols = slice(lo, lo + SAMPLE_BLOCK)
            out = valid[plan.out_idx, cols]
            block = (out != rest_out) & (out != X) & known_rest
            packed[:, lo // 8: (lo + SAMPLE_BLOCK) // 8] = np.packbits(block, axis=1)
            counts += np.count_nonzero(block, axis=1)
            # Axis-0 sums accumulate row by row, i.e. in op order.
            energy[cols] = np.where(block, per_toggle, 0.0).sum(axis=0)
        return packed, counts, energy

    @staticmethod
    def _sweep(levels, valid: np.ndarray, rest: np.ndarray, toggled: np.ndarray,
               arrivals: np.ndarray, forward: bool) -> None:
        """Fill one phase's ``(ops + 1, samples)`` arrival matrix (last row: zero)."""
        arrivals[-1] = 0.0
        for lo in range(0, valid.shape[1], SAMPLE_BLOCK):
            cols = slice(lo, lo + SAMPLE_BLOCK)
            block = arrivals[:, cols]
            on = np.unpackbits(
                toggled[:, lo // 8: (lo + SAMPLE_BLOCK) // 8], axis=1,
                count=block.shape[1],
            ).view(bool)
            finals, starts = (valid[:, cols], rest) if forward else (rest, valid[:, cols])
            for level in levels:
                for bound in level:
                    group = bound.group
                    t = bound.rule(
                        finals[group.in_idx],
                        block[bound.in_rows],
                        starts[group.in_idx] if bound.needs_start else None,
                        finals[group.out_idx] if bound.needs_out else None,
                    )
                    block[bound.out_rows] = np.where(
                        on[bound.out_rows], t + bound.delay, 0.0
                    )

    def run(
        self,
        inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
        spacer: Mapping[str, int],
    ) -> TimedBatchResult:
        """Time a batch of full handshake cycles.

        Parameters
        ----------
        inputs:
            Valid-phase primary-input planes (per-sample arrays, or scalars
            broadcast over the batch) — the same stimulus shape the
            functional backends' ``run_arrays`` takes.
        spacer:
            The rest-state input word every cycle starts from and returns
            to (for dual-rail circuits,
            :func:`repro.analysis.measure.spacer_assignments`).
        """
        with _trace.span("timed.run") as run_span:
            if self._bound is None:
                self._bound = self._bind()
            kernel, rows, levels = self._bound
            plan = kernel.plan
            valid, samples = self._settle(kernel, inputs)
            run_span.add(samples=samples)
            rest, _ = self._settle(
                kernel, {net: int(v) for net, v in spacer.items()}
            )
            toggled, counts, energy = self._toggles(plan, valid, rest)
            # Both phases share one allocation: two separate matrices
            # fragmented the heap across repeated large runs and raised the
            # process's peak RSS, one block does not.
            arrivals = np.empty((2, plan.num_cells + 1, samples), dtype=np.float64)
            with _trace.span("timed.forward"):
                self._sweep(levels, valid, rest, toggled, arrivals[0], forward=True)
            with _trace.span("timed.backward"):
                self._sweep(levels, valid, rest, toggled, arrivals[1], forward=False)
            for matrix in (valid, rest, arrivals):
                matrix.flags.writeable = False
            activity_by_cell, activity_by_type = _activity_dicts(plan, counts, 2)
        index = plan.net_index
        return TimedBatchResult(
            samples=samples,
            values=PlaneMatrixView(valid, index),
            spacer_values=_SpacerValues(rest, index),
            arrival_valid=_ArrivalView(arrivals[0], index, rows),
            arrival_reset=_ArrivalView(arrivals[1], index, rows),
            energy_per_sample_fj=energy,
            activity_by_cell=activity_by_cell,
            activity_by_cell_type=activity_by_type,
            vdd=self.vdd,
        )
