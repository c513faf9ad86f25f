"""Unpacked ``uint8`` view of the bit-packed engine.

:class:`BatchBackend` runs exactly the engine of
:class:`~repro.sim.backends.bitpack.BitpackBackend` — the same packing,
grouped kernel and popcount activity — and differs only in the shape of
its result: one decode
(:func:`~repro.sim.backends.bitpack.decode_value_matrix`) turns the settled
``ones``/``zeros`` plane matrices into a single ``(nets, samples)`` ``uint8``
matrix, presented per net by :class:`ArrayBatchResult`.  Callers that read
many nets of every sample (protocol boxing, determinism checks, the
equivalence tests) get plain byte planes; callers that read a few rails
of a large batch are better served by the bitpack result's lazy unpack.

Value encoding
--------------
Nets are ``uint8`` arrays over the batch with ``0``, ``1`` and ``2`` (the
``X``/unknown sentinel).  Values, activity and the sequential-cell contract
are the bitpack engine's (see :mod:`repro.sim.backends.bitpack`), so they
match the event backend gate for gate on monotonically-settling netlists.
Passing the spacer input word as ``baseline`` counts one
spacer→valid→spacer handshake as two committed transitions per cell whose
valid-phase value differs from its known rest value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.circuits.gates import LogicValue

from ..kernels import PlaneMatrixView
from .base import register_backend
from .bitpack import X, BitpackBackend, decode_value_matrix


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


class BatchBackend(BitpackBackend):
    """The bitpack engine with results unpacked to ``uint8`` planes (``name="batch"``).

    Construction, timing (``run_timed``) and the protocol entry points are
    inherited from :class:`~repro.sim.backends.bitpack.BitpackBackend`;
    only :meth:`run_arrays` differs.
    """

    name = "batch"

    def run_arrays(
        self,
        inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
        baseline: Optional[Mapping[str, int]] = None,
        transitions_per_toggle: int = 2,
    ) -> ArrayBatchResult:
        """The packed pass of :meth:`BitpackBackend.run_arrays`, unpacked once."""
        packed = super().run_arrays(inputs, baseline, transitions_per_toggle)
        ones, zeros = packed.packed.matrices
        return ArrayBatchResult(
            samples=packed.samples,
            values=PlaneMatrixView(
                decode_value_matrix(ones, zeros, packed.samples),
                self._kernel.plan.net_index,
            ),
            activity_by_cell=packed.activity_by_cell,
            activity_by_cell_type=packed.activity_by_cell_type,
        )


register_backend("batch", BatchBackend)
