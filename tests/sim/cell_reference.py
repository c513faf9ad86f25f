"""Per-cell reference evaluator the vectorized engines are tested against.

Deliberately the simplest possible execution of a
:class:`~repro.sim.program.CompiledProgram`: one Python call per cell, in
program order, over whole ``uint8`` sample planes (``2`` encodes X), built
from the three-valued ``_*_arrays`` primitives below.  Switching activity
follows the same rule as the engines' contract: a sample toggles when its
value is known and differs from the cell's known rest value.

The primitives, the cell-type compiler and the per-cell binder used to live
in ``repro.sim`` as the shared vocabulary of the per-cell engines; they are
kept here, unchanged, as the independent oracle (the timed reference in
``timed_reference.py`` builds on them too).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.backends.base import BackendError, classify_cell_type

#: Batch-plane encoding of the unknown (``X``) logic value.
X = np.uint8(2)
_ZERO = np.uint8(0)
_ONE = np.uint8(1)
#: Three-valued NOT as a lookup table over {0, 1, X}.
_NOT_LUT = np.array([1, 0, 2], dtype=np.uint8)


def _and_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized three-valued AND: 0 dominates, all-1 gives 1, else X."""
    any0 = arrays[0] == 0
    all1 = arrays[0] == 1
    for a in arrays[1:]:
        any0 = any0 | (a == 0)
        all1 = all1 & (a == 1)
    return np.where(any0, _ZERO, np.where(all1, _ONE, X)).astype(np.uint8)


def _or_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized three-valued OR: 1 dominates, all-0 gives 0, else X."""
    any1 = arrays[0] == 1
    all0 = arrays[0] == 0
    for a in arrays[1:]:
        any1 = any1 | (a == 1)
        all0 = all0 & (a == 0)
    return np.where(any1, _ONE, np.where(all0, _ZERO, X)).astype(np.uint8)


def _xor_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized three-valued XOR: any X poisons the result."""
    unknown = arrays[0] == X
    acc = arrays[0].copy()
    for a in arrays[1:]:
        unknown = unknown | (a == X)
        acc = acc ^ a
    return np.where(unknown, X, acc & 1).astype(np.uint8)


def _maj3_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized three-valued 3-input majority (controlling 2-of-3)."""
    ones = (arrays[0] == 1).astype(np.uint8)
    zeros = (arrays[0] == 0).astype(np.uint8)
    for a in arrays[1:]:
        ones = ones + (a == 1)
        zeros = zeros + (a == 0)
    return np.where(ones >= 2, _ONE, np.where(zeros >= 2, _ZERO, X)).astype(np.uint8)


def _c_element_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """C-element with final input values: all-1 → 1, all-0 → 0, else X (hold)."""
    all1 = arrays[0] == 1
    all0 = arrays[0] == 0
    for a in arrays[1:]:
        all1 = all1 & (a == 1)
        all0 = all0 & (a == 0)
    return np.where(all1, _ONE, np.where(all0, _ZERO, X)).astype(np.uint8)


def normalize_input_planes(program, inputs) -> Tuple[Dict[str, np.ndarray], int]:
    """Normalize a stimulus mapping into ``uint8`` planes, inferring batch size.

    Scalars broadcast over the batch, array lengths must agree, values must
    be Boolean, and every net must exist in *program*'s net table.
    Returns ``(planes, samples)``.
    """
    samples: Optional[int] = None
    for value in inputs.values():
        if np.ndim(value) > 0:
            n = int(np.shape(value)[0])
            if samples is not None and samples != n:
                raise BackendError(
                    f"inconsistent batch sizes in input arrays ({samples} vs {n})"
                )
            samples = n
    if samples is None:
        samples = 1
    planes: Dict[str, np.ndarray] = {}
    for net, value in inputs.items():
        if net not in program.nets:
            raise KeyError(f"unknown net {net!r}")
        plane = np.asarray(value, dtype=np.uint8)
        if plane.ndim == 0:
            plane = np.full(samples, int(plane), dtype=np.uint8)
        if np.any(plane > 1):
            raise BackendError(f"input plane for {net!r} contains non-Boolean values")
        planes[net] = plane
    return planes, samples


def make_cell_type_compiler(
    backend_name: str,
    and_fn: Callable,
    or_fn: Callable,
    xor_fn: Callable,
    maj3_fn: Callable,
    c_fn: Callable,
    invert: Callable,
) -> Callable[[str], Callable]:
    """Build a ``cell type -> evaluator`` compiler from primitive evaluators.

    Every per-cell evaluator shares one cell-type dispatch
    (:func:`~repro.sim.backends.base.classify_cell_type`); only the
    primitives differ.  Each ``*_fn`` takes the cell's input values in pin
    order and returns the output value; *invert* maps an output value to
    its logical complement.  Complex AOI/OAI/AO/OA gates compose the inner
    primitive per pin group and the outer one across groups.
    """

    def grouped(groups: Tuple[int, ...], inner: Callable, outer: Callable,
                inverting: bool) -> Callable:
        """Complex-gate evaluator: *inner* per pin group, *outer* across groups."""

        def fn(values: List) -> object:
            """Evaluate one complex gate over grouped pin values."""
            terms: List = []
            idx = 0
            for width in groups:
                terms.append(values[idx] if width == 1 else inner(values[idx: idx + width]))
                idx += width
            out = outer(terms)
            return invert(out) if inverting else out

        return fn

    def compile_cell_type(cell_type: str) -> Callable:
        """Return the evaluator for *cell_type* (input order = pin order)."""
        kind = classify_cell_type(cell_type)
        if kind is None:
            raise BackendError(
                f"{backend_name} backend cannot vectorize cell type {cell_type!r}"
            )
        tag, groups = kind
        if tag == "inv":
            return lambda values: invert(values[0])
        if tag == "buf":
            return lambda values: values[0]
        if tag == "maj3":
            return maj3_fn
        if tag == "xor":
            return xor_fn
        if tag == "xnor":
            return lambda values: invert(xor_fn(values))
        if tag == "and":
            return and_fn
        if tag == "nand":
            return lambda values: invert(and_fn(values))
        if tag == "or":
            return or_fn
        if tag == "nor":
            return lambda values: invert(or_fn(values))
        if tag == "c":
            return c_fn
        inner, outer, inverting = {
            "aoi": (and_fn, or_fn, True),
            "oai": (or_fn, and_fn, True),
            "ao": (and_fn, or_fn, False),
            "oa": (or_fn, and_fn, False),
        }[tag]
        return grouped(groups, inner, outer, inverting)

    return compile_cell_type


@dataclass
class CellOp:
    """One compiled cell bound to a per-cell evaluator."""

    cell_name: str
    cell_type: str
    in_nets: Tuple[str, ...]
    out_net: str
    fn: Callable


def bind_cell_ops(program, compile_cell_type: Callable[[str], Callable]) -> List[CellOp]:
    """Bind *program*'s ops to per-cell evaluators (memoised per cell type)."""
    fn_cache: Dict[str, Callable] = {}
    ops: List[CellOp] = []
    for op in program.ops:
        fn = fn_cache.get(op.cell_type)
        if fn is None:
            fn = compile_cell_type(op.cell_type)
            fn_cache[op.cell_type] = fn
        ops.append(
            CellOp(
                cell_name=op.cell_name,
                cell_type=op.cell_type,
                in_nets=op.in_nets,
                out_net=op.out_net,
                fn=fn,
            )
        )
    return ops


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
