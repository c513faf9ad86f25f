"""Levelized vectorized simulation backend.

:class:`BatchBackend` trades the event simulator's timing fidelity for
throughput: the netlist is topologically levelized **once** (see
:mod:`repro.circuits.levelize`), and an entire batch of input vectors is
pushed through the grouped kernel of :mod:`repro.sim.kernels` — one
vectorized three-valued NumPy operation per cell shape per level.
Evaluating *B* samples therefore costs one NumPy op sequence over ``(B,)``
lanes instead of ``B`` full event-driven settles — two to three orders of
magnitude faster in practice.

Value encoding
--------------
Nets are ``uint8`` arrays over the batch with ``0``, ``1`` and ``2`` (the
``X``/unknown sentinel).  Every gate uses the same controlling-value
three-valued semantics as :mod:`repro.circuits.gates`, so the settled values
match the event backend **gate for gate** (the equivalence tests assert
this).

Sequential cells
----------------
C-elements are evaluated with their *final* input values: all-1 → 1,
all-0 → 0, otherwise ``X`` (the state a from-scratch event settle would also
hold).  This is exact for monotonically-settling netlists — which dual-rail
circuits are by construction (paper Requirement 2) — and for the input-latch
idiom where both C inputs share one rail.  Clocked flip-flops have no
single-pass functional meaning, so netlists containing ``DFF`` cells are
rejected: use the event backend for the synchronous baseline.

Switching activity
------------------
For spacer-separated protocols each handshake cycle toggles a cell output
away from its rest value and back, i.e. **two** committed transitions per
cell whose valid-phase value differs from its spacer-phase value.  Passing
the spacer input word as ``baseline`` makes :meth:`BatchBackend.run_arrays`
count exactly that, giving the per-gate activity that energy estimation
needs without simulating the return-to-spacer phase.  (Glitches, which the
event simulator does capture, are not modelled — dual-rail switching is
glitch-free by monotonicity.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.gates import LogicValue
from repro.circuits.library import CellLibrary
from repro.circuits.netlist import Netlist
from repro.obs import trace as _trace

from ..kernels import (
    GroupedPlan,
    PlaneMatrixView,
    baseline_memo_key,
    bulk_stimulus_matrix,
    fused_kernel,
    grouped_batch_activity,
)
from ..program import CompiledProgram, compile_program
from .base import BackendError, BatchResult, register_backend

#: Batch-plane encoding of the unknown (``X``) logic value.
X = np.uint8(2)


def pack_value_matrix(
    plan: GroupedPlan,
    constants: Sequence[Tuple[str, int]],
    inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
) -> Tuple[np.ndarray, int]:
    """The ``(nets, samples)`` value matrix of *inputs*, ready for the level sweeps.

    Stimulus rows hold the input planes, *constants* rows their tie value
    and every other row no op drives (unassigned primary inputs, undriven
    nets) holds X.  The level sweeps overwrite every driven row, so those
    are left uninitialised.  Returns ``(values, samples)``.
    """
    rows, stacked, samples = bulk_stimulus_matrix(inputs, plan.net_index)
    values = np.empty((plan.num_nets, samples), dtype=np.uint8)
    values[np.setdiff1d(plan.nonoutput_rows, rows)] = X
    values[rows] = stacked
    for net, constant in constants:
        values[plan.net_index[net]] = np.uint8(constant)
    return values, samples

def stacked_batch_inputs(
    batch: Sequence[Mapping[str, int]],
) -> Dict[str, np.ndarray]:
    """Stack per-sample assignment mappings into per-net input arrays.

    The :meth:`SimulationBackend.run_batch` front end shared by the
    vectorized backends; raises :class:`BackendError` when the batch is
    ragged (a net assigned in some samples but not all).
    """
    nets = sorted({net for assignments in batch for net in assignments})
    inputs = {
        net: np.array([int(assignments[net]) for assignments in batch], dtype=np.uint8)
        for net in nets
        if all(net in assignments for assignments in batch)
    }
    missing = [net for net in nets if net not in inputs]
    if missing:
        raise BackendError(
            f"ragged batch: nets {missing[:4]} are not assigned in every sample"
        )
    return inputs


def boxed_batch_result(result, netlist: Union[Netlist, CompiledProgram]) -> BatchResult:
    """Box a vectorized array result into the protocol-level :class:`BatchResult`.

    *result* is duck-typed over the plane-result interface the vectorized
    backends share (``samples``, ``values`` and the activity dicts) —
    :class:`ArrayBatchResult` or the bitpack backend's
    ``PackedBatchResult``; *netlist* is a
    :class:`~repro.circuits.netlist.Netlist` or a compiled program's net
    table (``.nets`` + ``.primary_outputs``).  Decoding goes through whole
    ``uint8`` planes (one vectorized unpack per net for packed results),
    never per-sample scalar extraction.
    """
    planes = result.values
    net_values = {}
    for net in netlist.nets:
        net_values[net] = [None if v == 2 else v for v in planes[net].tolist()]
    outputs = [
        {net: net_values[net][k] for net in netlist.primary_outputs}
        for k in range(result.samples)
    ]
    return BatchResult(
        samples=result.samples,
        outputs=outputs,
        activity_by_cell=result.activity_by_cell,
        activity_by_cell_type=result.activity_by_cell_type,
        net_values=net_values,
    )


@dataclass
class ArrayBatchResult:
    """Raw array-plane result of a :meth:`BatchBackend.run_arrays` call.

    ``values[net]`` is the ``(samples,)`` ``uint8`` plane of every net
    (``2`` encodes X).  This is the zero-copy interface the experiment
    harnesses decode verdicts from; :class:`~repro.sim.backends.base.BatchResult`
    is the boxed per-sample view used for protocol-level interop.
    ``values`` is a :class:`~repro.sim.kernels.PlaneMatrixView` (row views
    into one value matrix) rather than a dict — same mapping interface, no
    per-net copies.
    """

    samples: int
    values: Mapping[str, np.ndarray]
    activity_by_cell: Dict[str, int] = field(default_factory=dict)
    activity_by_cell_type: Dict[str, int] = field(default_factory=dict)

    def value_of(self, net: str, sample: int) -> LogicValue:
        """Decode one net value back into the scalar LogicValue domain."""
        v = int(self.values[net][sample])
        return None if v == int(X) else v

    def sample_values(self, sample: int, nets: Sequence[str]) -> Dict[str, LogicValue]:
        """Scalar values of *nets* for one sample."""
        return {net: self.value_of(net, sample) for net in nets}


class BatchBackend:
    """Vectorized levelized functional backend (``name="batch"``).

    Parameters
    ----------
    netlist:
        Combinational (levelizable) netlist; may contain C-elements but not
        flip-flops.
    library:
        Accepted for interface parity with the event backend; the batch
        engine is purely functional, so only :class:`~repro.circuits.library.VoltageModel.is_functional`
        gating by callers applies.
    vdd:
        Recorded for reporting; does not change functional results.
    program:
        A precompiled :class:`~repro.sim.program.CompiledProgram` to
        execute instead of compiling *netlist*.
    """

    name = "batch"

    def __init__(
        self,
        netlist: Optional[Netlist] = None,
        library: Optional[CellLibrary] = None,
        vdd: Optional[float] = None,
        program: Optional[CompiledProgram] = None,
    ) -> None:
        if netlist is None and program is None:
            raise BackendError(
                f"{self.name} backend needs a netlist= or a precompiled program="
            )
        if program is None:
            program = compile_program(netlist, library, vdd=vdd)
        self.netlist = netlist
        self.library = library
        self.vdd = vdd if vdd is not None else program.vdd
        #: The backend-neutral compile artifact this instance executes.
        self.program = program
        self._constants = list(program.constants)
        #: The grouped kernel (shared by every backend on this program).
        self._kernel = fused_kernel(program, self.name)
        #: Single-slot (key, settled planes) memo of the activity baseline.
        self._rest_memo = None

    def _values(
        self,
        inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
    ) -> Tuple[np.ndarray, int]:
        """Pack the stimulus into the value matrix and run the level sweeps."""
        with _trace.span("batch.pack") as pack_span:
            values, samples = pack_value_matrix(
                self._kernel.plan, self._constants, inputs
            )
            pack_span.add(samples=samples)
        with _trace.span("batch.levels", cells=len(self.program.ops)):
            self._kernel.execute(values)
        return values, samples

    def _rest_values(
        self, baseline: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
    ) -> np.ndarray:
        """The settled rest-state value matrix for *baseline*, memoized.

        Activity accounting needs the baseline evaluated on every call, but
        callers overwhelmingly pass the same scalar spacer word each time —
        a single-slot memo keyed on the mapping's contents
        (:func:`~repro.sim.kernels.baseline_memo_key`) skips the repeated
        level sweep.  Array-valued baselines bypass the memo.
        """
        key = baseline_memo_key(baseline)
        if key is not None and self._rest_memo is not None:
            cached_key, cached_values = self._rest_memo
            if cached_key == key:
                return cached_values
        rest_values, _ = self._values(baseline)
        if key is not None:
            self._rest_memo = (key, rest_values)
        return rest_values

    def run_arrays(
        self,
        inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
        baseline: Optional[Mapping[str, int]] = None,
        transitions_per_toggle: int = 2,
    ) -> ArrayBatchResult:
        """Push a batch through the netlist; the workhorse entry point.

        Parameters
        ----------
        inputs:
            Primary-input net → per-sample value array (or a scalar,
            broadcast over the batch).  Unassigned primary inputs evaluate
            as X, exactly like an undriven input in the event simulator.
        baseline:
            Optional rest-state assignment.  When given, it is evaluated
            once and every cell whose batch value differs from its baseline
            value contributes ``transitions_per_toggle`` transitions per
            differing sample (2 models one spacer→valid→spacer handshake).
        """
        plan = self._kernel.plan
        values, samples = self._values(inputs)
        activity_by_cell: Dict[str, int] = {}
        activity_by_type: Dict[str, int] = {}
        if baseline is not None:
            with _trace.span("batch.activity"):
                activity_by_cell, activity_by_type = grouped_batch_activity(
                    plan, values, self._rest_values(baseline),
                    transitions_per_toggle,
                )
        return ArrayBatchResult(
            samples=samples,
            values=PlaneMatrixView(values, plan.net_index),
            activity_by_cell=activity_by_cell,
            activity_by_cell_type=activity_by_type,
        )

    # -------------------------------------------------------------- timing
    def run_timed(
        self,
        inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
        spacer: Mapping[str, int],
        delay_variation: Optional[Dict[str, float]] = None,
    ):
        """Per-sample arrival times and energy for a batch of handshake cycles.

        The vectorized data-dependent timing engine
        (:class:`~repro.sim.backends.timed.TimedProgram`): every cycle is a
        spacer→valid→spacer handshake starting from the *spacer* rest word,
        and the result carries per-sample per-net arrival times for both
        phases plus per-sample switching energy — equivalent to the
        event-driven environment on monotonic (dual-rail) netlists within
        float re-association accuracy (see :mod:`repro.sim.backends.timed`
        for the tolerance contract), at batch-backend throughput.  Requires
        the backend to have been built with a characterised library; the
        compiled program is cached, so repeated calls only pay the array
        sweeps.

        Returns a :class:`~repro.sim.backends.timed.TimedBatchResult`.
        """
        from .timed import backend_run_timed

        return backend_run_timed(self, inputs, spacer, delay_variation)

    # ----------------------------------------------------------- protocol
    def evaluate(self, assignments: Mapping[str, int]) -> Dict[str, LogicValue]:
        """Settled value of every net for one primary-input assignment."""
        result = self.run_arrays(assignments)
        return {net: result.value_of(net, 0) for net in self.program.nets}

    def run_batch(
        self,
        batch: Sequence[Mapping[str, int]],
        baseline: Optional[Mapping[str, int]] = None,
    ) -> BatchResult:
        """Protocol-compliant batched evaluation over per-sample mappings."""
        if not batch:
            return BatchResult(samples=0, outputs=[])
        result = self.run_arrays(stacked_batch_inputs(batch), baseline=baseline)
        return boxed_batch_result(result, self.program)


register_backend("batch", BatchBackend)
