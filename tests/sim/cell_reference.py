"""Per-cell reference evaluator the vectorized engines are tested against.

Deliberately the simplest possible execution of a
:class:`~repro.sim.program.CompiledProgram`: one Python call per cell, in
program order, over whole ``uint8`` sample planes (``2`` encodes X), built
from the batch backend's three-valued ``_*_arrays`` primitives.  Switching
activity follows the same rule as the engines' contract: a sample toggles
when its value is known and differs from the cell's known rest value.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.sim.backends.base import bind_cell_ops, make_cell_type_compiler
from repro.sim.backends.batch import (
    _NOT_LUT,
    X,
    _and_arrays,
    _c_element_arrays,
    _maj3_arrays,
    _or_arrays,
    _xor_arrays,
    normalize_input_planes,
)

_compile_cell_type = make_cell_type_compiler(
    "reference", and_fn=_and_arrays, or_fn=_or_arrays, xor_fn=_xor_arrays,
    maj3_fn=_maj3_arrays, c_fn=_c_element_arrays,
    invert=lambda array: _NOT_LUT[array],
)


def _settle(program, inputs):
    """Every net's settled plane for *inputs* (unassigned nets are X)."""
    planes, samples = normalize_input_planes(program, inputs)
    x_plane = np.full(samples, X, dtype=np.uint8)
    values = dict(planes)
    for net, constant in program.constants:
        values[net] = np.full(samples, constant, dtype=np.uint8)
    for op in bind_cell_ops(program, _compile_cell_type):
        values[op.out_net] = op.fn([values.get(net, x_plane) for net in op.in_nets])
    return {net: values.get(net, x_plane) for net in program.nets}, samples


def reference_run(program, inputs, baseline=None, transitions_per_toggle=2):
    """Values and activity shaped like a backend's ``run_arrays`` result."""
    values, samples = _settle(program, inputs)
    by_cell, by_type = {}, {}
    if baseline is not None:
        rest, _ = _settle(program, baseline)
        for op in program.ops:
            rest_value = rest[op.out_net][0]
            plane = values[op.out_net]
            toggles = 0 if rest_value == X else int(
                np.count_nonzero((plane != rest_value) & (plane != X))
            )
            if toggles:
                by_cell[op.cell_name] = toggles * transitions_per_toggle
                by_type[op.cell_type] = (
                    by_type.get(op.cell_type, 0) + toggles * transitions_per_toggle
                )
    return SimpleNamespace(
        samples=samples, values=values,
        activity_by_cell=by_cell, activity_by_cell_type=by_type,
    )
