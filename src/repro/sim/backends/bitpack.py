"""Bit-packed 64-lane simulation backend — the one vectorized engine.

:class:`BitpackBackend` packs the *sample axis* into ``uint64`` bit-planes —
64 samples per machine word — so that evaluating a gate over the whole
batch costs a handful of bitwise word operations instead of one full
event-driven settle per sample (the ``"event"`` backend).  This is the same
trick production logic simulators use for functional regression runs.
Execution goes through the grouped kernel of :mod:`repro.sim.kernels`:
every same-shaped cell of a level is evaluated by one set of word
operations over the stacked plane rows.  The ``"batch"`` backend
(:mod:`repro.sim.backends.batch`) is this engine with its result decoded
to ``uint8`` planes, and the timed engine (:mod:`repro.sim.backends.timed`)
settles its valid and spacer words through the same packing and kernel.

Value encoding
--------------
Every net carries **two** bit-planes, mirroring the dual-rail encoding the
paper's circuits themselves use:

``ones``
    bit *k* set ⇔ sample *k* settled to logic 1;
``zeros``
    bit *k* set ⇔ sample *k* settled to logic 0.

A sample with neither bit set is unknown (``X``); both bits set never
occurs (the evaluators preserve this invariant).  The payoff is that the
three-valued controlling-value semantics of :mod:`repro.circuits.gates`
become closed-form word ops — for AND, ``ones = AND`` of the ones-planes
(all inputs known-1) and ``zeros = OR`` of the zeros-planes (any input
known-0); OR is the exact dual; an inverter merely *swaps* the planes.
Settled values therefore match the event backend gate for gate (the
equivalence tests assert this against it and a per-cell reference).

Ragged tails
------------
Sample counts not divisible by 64 leave unused lanes in the final word.
Those tail lanes simply carry no plane bits — i.e. they are ``X`` — so they
can never contribute to decoded values or to activity popcounts; no masking
is needed anywhere on the hot path.

Switching activity
------------------
Passing the spacer input word as ``baseline`` counts one
spacer→valid→spacer handshake as two committed transitions per cell whose
valid-phase value differs from its (known) rest value.  The count is a
popcount per cell: against a rest value of 0 the toggling
samples are exactly the ``ones`` plane, against 1 exactly the ``zeros``
plane — unknown lanes (including the masked tail) are excluded by
construction.  (Glitches, which the event simulator does capture, are not
modelled — dual-rail switching is glitch-free by monotonicity.)

Sequential cells
----------------
C-elements are evaluated with their *final* input values: all-1 → 1,
all-0 → 0, otherwise ``X`` (the state a from-scratch event settle would also
hold).  This is exact for monotonically-settling netlists — which dual-rail
circuits are by construction (paper Requirement 2) — and for the input-latch
idiom where both C inputs share one rail.  Clocked flip-flops have no
single-pass functional meaning, so netlists containing ``DFF`` cells are
rejected: use the event backend for the synchronous baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.gates import LogicValue
from repro.circuits.library import CellLibrary
from repro.circuits.netlist import Netlist
from repro.obs import trace as _trace

from ..kernels import (
    GroupedPlan,
    PlanePairMatrixView,
    baseline_memo_key,
    bulk_stimulus_matrix,
    fused_kernel,
    grouped_bitpack_activity,
)
from ..program import CompiledProgram, compile_program
from .base import BackendError, BatchResult, register_backend

#: Unpacked-plane encoding of the unknown (``X``) logic value.
X = np.uint8(2)

#: Samples per packed word (the lane width of the engine).
WORD_BITS = 64

#: A net's packed value: ``(ones, zeros)`` bit-plane word arrays.
PlanePair = Tuple[np.ndarray, np.ndarray]


def words_for(samples: int) -> int:
    """Number of ``uint64`` words needed to hold *samples* one-bit lanes."""
    return (samples + WORD_BITS - 1) // WORD_BITS


def pack_bits(bits: np.ndarray, samples: int) -> np.ndarray:
    """Pack a ``(samples,)`` 0/1 array into ``uint64`` words, LSB-first.

    Lanes past *samples* in the final word are left clear, which encodes
    them as unknown (``X``) under the two-plane representation — the masked
    ragged tail.
    """
    padded = np.zeros(words_for(samples) * WORD_BITS, dtype=np.uint8)
    padded[:samples] = bits
    return np.packbits(padded, bitorder="little").view(np.uint64)


def unpack_bits(words: np.ndarray, samples: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: the first *samples* lanes as a 0/1 array."""
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:samples]


def decode_value_matrix(ones: np.ndarray, zeros: np.ndarray,
                        samples: int) -> np.ndarray:
    """Decode plane pairs into ``uint8`` sample values (``2`` encodes X).

    *ones* and *zeros* are ``(..., words)`` word arrays of matching shape;
    the result is ``(..., samples)``, padding lanes dropped.  Each value is
    ``2 - one - 2 * zero``, computed in place on the unpacked bit arrays.
    """
    values = np.unpackbits(
        ones.view(np.uint8), axis=-1, count=samples, bitorder="little"
    )
    zero_bits = np.unpackbits(
        zeros.view(np.uint8), axis=-1, count=samples, bitorder="little"
    )
    np.subtract(X, values, out=values)
    zero_bits <<= 1
    values -= zero_bits
    return values


def pack_planes(
    plan: GroupedPlan,
    constants: Sequence[Tuple[str, int]],
    inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
) -> Tuple[np.ndarray, np.ndarray, int]:
    """The ``(nets, words)`` ones/zeros matrices of *inputs*, ready for the level sweeps.

    Stimulus rows hold the packed input planes, *constants* rows their tie
    value on every lane, and every other row no op drives (unassigned
    primary inputs, undriven nets) is all-zero, i.e. X.  The level sweeps
    overwrite every driven row, so those are left uninitialised.  Returns
    ``(ones, zeros, samples)``.
    """
    # Normalize straight into a word-aligned stacked matrix (padding lanes
    # stay zero), so the whole stimulus packs in one np.packbits call: rows
    # are (words * 8)-byte lanes, viewable as uint64 words.
    rows, stacked, samples = bulk_stimulus_matrix(
        inputs, plan.net_index, lane_align=WORD_BITS
    )
    words = words_for(samples)
    ones = np.empty((plan.num_nets, words), dtype=np.uint64)
    zeros = np.empty((plan.num_nets, words), dtype=np.uint64)
    idle = np.setdiff1d(plan.nonoutput_rows, rows)
    ones[idle] = 0
    zeros[idle] = 0
    # All-lanes-valid mask, built word-wise (equivalent to packing an
    # all-ones plane, without materializing it).
    valid_mask = np.full(words, ~np.uint64(0), dtype=np.uint64)
    tail = samples % WORD_BITS
    if tail:
        valid_mask[-1] = np.uint64((1 << tail) - 1)
    if len(rows):
        packed = np.packbits(stacked, axis=1, bitorder="little").view(np.uint64)
        ones[rows] = packed
        zeros[rows] = packed ^ valid_mask
    for net, constant in constants:
        row = plan.net_index[net]
        if constant:
            ones[row] = valid_mask
            zeros[row] = 0
        else:
            ones[row] = 0
            zeros[row] = valid_mask
    return ones, zeros, samples


def stacked_batch_inputs(
    batch: Sequence[Mapping[str, int]],
) -> Dict[str, np.ndarray]:
    """Stack per-sample assignment mappings into per-net input arrays.

    The :meth:`SimulationBackend.run_batch` front end of the vectorized
    backends; raises :class:`BackendError` when the batch is ragged (a net
    assigned in some samples but not all).
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
    :class:`PackedBatchResult` or the batch backend's
    ``ArrayBatchResult``; *netlist* is a
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


class _LazyPlaneView(Mapping):
    """Read-only ``net → uint8 sample plane`` view over a packed result.

    Unpacking every net eagerly would cost the same memory traffic the
    packing saved, so planes are decoded (and cached) only on access — the
    verdict decoders touch three rails of a thousand-net design.
    """

    def __init__(self, result: "PackedBatchResult") -> None:
        self._result = result

    def __getitem__(self, net: str) -> np.ndarray:
        """The unpacked ``uint8`` plane of *net* (``2`` encodes X)."""
        return self._result.plane(net)

    def __iter__(self) -> Iterator[str]:
        """Iterate over the packed net names."""
        return iter(self._result.packed)

    def __len__(self) -> int:
        """Number of packed nets."""
        return len(self._result.packed)


@dataclass
class PackedBatchResult:
    """Raw bit-plane result of a :meth:`BitpackBackend.run_arrays` call.

    ``packed[net]`` is the ``(ones, zeros)`` pair of ``uint64`` word arrays;
    :attr:`values` presents the same data through the lazily-unpacked
    ``uint8`` plane interface of
    :class:`~repro.sim.backends.batch.ArrayBatchResult` (``2`` encodes X),
    so every consumer of the batch view's array results — the verdict
    decoders in :mod:`repro.analysis.measure`, the equivalence tests —
    works on either without change.  ``packed`` is a
    :class:`~repro.sim.kernels.PlanePairMatrixView` (row views into the
    two plane matrices) rather than a dict — same mapping interface, no
    per-net copies.
    """

    samples: int
    packed: Mapping[str, PlanePair]
    activity_by_cell: Dict[str, int] = field(default_factory=dict)
    activity_by_cell_type: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Set up the per-net unpack cache."""
        self._planes: Dict[str, np.ndarray] = {}

    def plane(self, net: str) -> np.ndarray:
        """Unpack (and cache) the ``uint8`` sample plane of *net* (X = ``2``)."""
        cached = self._planes.get(net)
        if cached is not None:
            return cached
        ones, zeros = self.packed[net]
        plane = decode_value_matrix(ones, zeros, self.samples)
        self._planes[net] = plane
        return plane

    @property
    def values(self) -> Mapping:
        """Lazy ``net → uint8 plane`` mapping (decoded on access)."""
        return _LazyPlaneView(self)

    def value_of(self, net: str, sample: int) -> LogicValue:
        """Decode one net value back into the scalar LogicValue domain.

        *sample* follows sequence indexing like the batch backend's result:
        negative indices count from the end, and anything outside
        ``[-samples, samples)`` raises :class:`IndexError` (the padding
        lanes of the last word are not samples).
        """
        if sample < 0:
            sample += self.samples
        if not 0 <= sample < self.samples:
            raise IndexError(
                f"sample index out of range for a {self.samples}-sample batch"
            )
        # Index through the byte view, not word-level shifts: pack_bits
        # defines lane order via packbits(bitorder="little") on bytes, so
        # this decode is correct regardless of host word endianness.
        byte, bit = divmod(sample, 8)
        ones, zeros = self.packed[net]
        if (int(ones.view(np.uint8)[byte]) >> bit) & 1:
            return 1
        if (int(zeros.view(np.uint8)[byte]) >> bit) & 1:
            return 0
        return None

    def sample_values(self, sample: int, nets: Sequence[str]) -> Dict[str, LogicValue]:
        """Scalar values of *nets* for one sample."""
        return {net: self.value_of(net, sample) for net in nets}


class BitpackBackend:
    """Bit-packed 64-lane levelized functional backend (``name="bitpack"``).

    Parameters
    ----------
    netlist:
        Combinational (levelizable) netlist; may contain C-elements but not
        flip-flops.
    library:
        Accepted for interface parity with the other backends; the engine
        is purely functional.
    vdd:
        Recorded for reporting; does not change functional results.
    program:
        A precompiled :class:`~repro.sim.program.CompiledProgram` to
        execute instead of compiling *netlist*.
    """

    name = "bitpack"

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
        self._kernel = fused_kernel(program)
        #: Single-slot (key, settled planes) memo of the activity baseline.
        self._rest_memo = None

    def _planes(
        self,
        inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Pack the stimulus into the plane matrices and run the level sweeps."""
        with _trace.span("bitpack.pack") as pack_span:
            ones, zeros, samples = pack_planes(
                self._kernel.plan, self._constants, inputs
            )
            pack_span.add(samples=samples)
        with _trace.span("bitpack.levels", cells=len(self.program.ops)):
            self._kernel.execute(ones, zeros)
        return ones, zeros, samples

    def _rest_planes(
        self, baseline: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The settled rest-state plane matrices for *baseline*, memoized.

        Activity accounting needs the baseline evaluated on every call, but
        callers overwhelmingly pass the same scalar spacer word each time —
        a single-slot memo keyed on the mapping's contents
        (:func:`~repro.sim.kernels.baseline_memo_key`) skips the repeated
        level sweep.  Array-valued baselines bypass the memo.
        """
        key = baseline_memo_key(baseline)
        if key is not None and self._rest_memo is not None:
            cached_key, cached_planes = self._rest_memo
            if cached_key == key:
                return cached_planes
        rest_ones, rest_zeros, _ = self._planes(baseline)
        if key is not None:
            self._rest_memo = (key, (rest_ones, rest_zeros))
        return rest_ones, rest_zeros

    def run_arrays(
        self,
        inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
        baseline: Optional[Mapping[str, int]] = None,
        transitions_per_toggle: int = 2,
    ) -> PackedBatchResult:
        """Push a batch through the netlist; the workhorse entry point.

        Parameters
        ----------
        inputs:
            Primary-input net → per-sample value array (or a scalar,
            broadcast over the batch).  Unassigned primary inputs evaluate
            as X, exactly like an undriven input in the event simulator.
        baseline:
            Optional rest-state assignment.  When given, it is evaluated
            once and every cell whose batch value differs from its (known)
            baseline value contributes ``transitions_per_toggle``
            transitions per differing sample (2 models one
            spacer→valid→spacer handshake).
        """
        plan = self._kernel.plan
        ones, zeros, samples = self._planes(inputs)
        activity_by_cell: Dict[str, int] = {}
        activity_by_type: Dict[str, int] = {}
        if baseline is not None:
            with _trace.span("bitpack.activity"):
                rest_ones, rest_zeros = self._rest_planes(baseline)
                activity_by_cell, activity_by_type = grouped_bitpack_activity(
                    plan, ones, zeros, rest_ones, rest_zeros,
                    transitions_per_toggle,
                )
        return PackedBatchResult(
            samples=samples,
            packed=PlanePairMatrixView(ones, zeros, plan.net_index),
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
        """Per-sample arrival times and energy — the masked-lane timed variant.

        Values settle through this backend's packing and kernel; arrival
        times are per-sample ``float64`` quantities, so unlike values they
        cannot be packed 64-to-a-word, and the timed sweeps run on dense
        ``(samples,)`` lanes.  Those are sized to exactly ``samples`` lanes,
        which is what masks the ragged tail: lanes past the stream length
        simply do not exist in the timing arrays, so they can never leak
        into latency percentiles or energy sums.  Results are bit-identical
        for every sample count, 64-aligned or not (the equivalence tests
        pin 1, 63, 64, 65 and 1000).

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


register_backend("bitpack", BitpackBackend)
