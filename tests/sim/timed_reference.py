"""Per-cell reference of the data-dependent timing engine.

The grouped timed engine (:mod:`repro.sim.backends.timed`) is tested
against this evaluator: one Python call per cell and per phase, over
``(start values, final values, arrival times)`` plane triples, in program
order.  Planes may be shape ``(1,)`` when constant across the batch; NumPy
broadcasting keeps the math uniform.  The early-propagation rules are the
ones the engine documents (controlling value → earliest controlling input,
otherwise the latest input; MAJ3 → second agreeing input; C-element and
XOR → latest input), written pairwise over input planes rather than as
group reductions, so the two implementations share no arrival code.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from cell_reference import (
    _NOT_LUT,
    X,
    _and_arrays,
    _c_element_arrays,
    _maj3_arrays,
    _or_arrays,
    _xor_arrays,
    bind_cell_ops,
    make_cell_type_compiler,
    normalize_input_planes,
)

#: Sentinel for "cannot determine the output" in controlling-value minima;
#: always masked out before it can reach a result.
_NEVER = np.float64(np.inf)

#: A net's timed state: ``(start values, final values, arrival times)``.
TimedPlanes = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _changed(start: np.ndarray, final: np.ndarray) -> np.ndarray:
    """Samples whose value actually transitions this phase (both values known)."""
    return (start != final) & (start != X) & (final != X)


def _mask(start: np.ndarray, final: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Zero the arrival of samples that do not transition (or are unknown)."""
    return np.where(_changed(start, final), t, 0.0)


def _last_arrival(arrivals: Sequence[np.ndarray]) -> np.ndarray:
    """Latest input arrival — the non-controlling (worst-case) rule."""
    last = arrivals[0]
    for arr in arrivals[1:]:
        last = np.maximum(last, arr)
    return last


def _first_arrival_at(
    finals: Sequence[np.ndarray], arrivals: Sequence[np.ndarray], value: int
) -> np.ndarray:
    """Earliest arrival among inputs whose final value is *value*."""
    first = np.where(finals[0] == value, arrivals[0], _NEVER)
    for fin, arr in zip(finals[1:], arrivals[1:]):
        first = np.minimum(first, np.where(fin == value, arr, _NEVER))
    return first


def _second_arrival_at(
    finals: Sequence[np.ndarray], arrivals: Sequence[np.ndarray], values: np.ndarray
) -> np.ndarray:
    """Second-earliest arrival among three inputs settling to *values*."""
    a, b, c = (
        np.where(fin == values, arr, _NEVER) for fin, arr in zip(finals, arrivals)
    )
    return np.minimum(
        np.minimum(np.maximum(a, b), np.maximum(a, c)), np.maximum(b, c)
    )


def _timed_and(planes: Sequence[TimedPlanes]) -> TimedPlanes:
    """Timed three-valued AND: a 0 propagates early, a 1 waits for all."""
    starts = [p[0] for p in planes]
    finals = [p[1] for p in planes]
    arrivals = [p[2] for p in planes]
    start = _and_arrays(starts)
    final = _and_arrays(finals)
    t = np.where(
        final == 0,
        _first_arrival_at(finals, arrivals, 0),
        _last_arrival(arrivals),
    )
    return start, final, _mask(start, final, t)


def _timed_or(planes: Sequence[TimedPlanes]) -> TimedPlanes:
    """Timed three-valued OR: a 1 propagates early, a 0 waits for all."""
    starts = [p[0] for p in planes]
    finals = [p[1] for p in planes]
    arrivals = [p[2] for p in planes]
    start = _or_arrays(starts)
    final = _or_arrays(finals)
    t = np.where(
        final == 1,
        _first_arrival_at(finals, arrivals, 1),
        _last_arrival(arrivals),
    )
    return start, final, _mask(start, final, t)


def _timed_xor(planes: Sequence[TimedPlanes]) -> TimedPlanes:
    """Timed three-valued XOR: settles with its last transitioning input."""
    starts = [p[0] for p in planes]
    finals = [p[1] for p in planes]
    arrivals = [p[2] for p in planes]
    start = _xor_arrays(starts)
    final = _xor_arrays(finals)
    return start, final, _mask(start, final, _last_arrival(arrivals))


def _timed_maj3(planes: Sequence[TimedPlanes]) -> TimedPlanes:
    """Timed 3-input majority: decided by the second input to agree."""
    starts = [p[0] for p in planes]
    finals = [p[1] for p in planes]
    arrivals = [p[2] for p in planes]
    start = _maj3_arrays(starts)
    final = _maj3_arrays(finals)
    t = _second_arrival_at(finals, arrivals, final)
    return start, final, _mask(start, final, t)


def _timed_c(planes: Sequence[TimedPlanes]) -> TimedPlanes:
    """Timed C-element: switches only when the *last* input agrees."""
    starts = [p[0] for p in planes]
    finals = [p[1] for p in planes]
    arrivals = [p[2] for p in planes]
    start = _c_element_arrays(starts)
    final = _c_element_arrays(finals)
    return start, final, _mask(start, final, _last_arrival(arrivals))


def _timed_not(plane: TimedPlanes) -> TimedPlanes:
    """Timed inversion: values complement, the arrival is untouched."""
    start, final, arrival = plane
    return _NOT_LUT[start], _NOT_LUT[final], arrival


_compile_cell_type = make_cell_type_compiler(
    "timed",
    and_fn=_timed_and,
    or_fn=_timed_or,
    xor_fn=_timed_xor,
    maj3_fn=_timed_maj3,
    c_fn=_timed_c,
    invert=_timed_not,
)


def _phase_sweep(program, ops, delays, start_inputs, final_inputs):
    """One levelized sweep: (start, final, arrival) planes for every net."""
    x1 = np.full(1, X, dtype=np.uint8)
    zero1 = np.zeros(1, dtype=np.float64)
    x_triple: TimedPlanes = (x1, x1, zero1)
    planes: Dict[str, TimedPlanes] = {}
    driven = set(start_inputs) | set(final_inputs)
    for name in program.primary_inputs:
        driven.add(name)
    for name in driven:
        planes[name] = (
            start_inputs.get(name, x1),
            final_inputs.get(name, x1),
            zero1,
        )
    for net, constant in program.constants:
        value = np.full(1, constant, dtype=np.uint8)
        planes[net] = (value, value, zero1)
    for op, delay in zip(ops, delays):
        start, final, t = op.fn([planes.get(net, x_triple) for net in op.in_nets])
        arrival = np.where(_changed(start, final), t + delay, 0.0)
        planes[op.out_net] = (start, final, arrival)
    for net in program.nets:
        if net not in planes:
            planes[net] = x_triple
    return planes


def reference_timed_run(
    program,
    inputs: Mapping,
    spacer: Mapping[str, int],
    delay_variation: Optional[Dict[str, float]] = None,
) -> SimpleNamespace:
    """Time a batch of handshake cycles one cell at a time.

    Returns the fields of a ``TimedBatchResult`` (plain dicts of per-net
    planes, possibly ``(1,)``-shaped) as a namespace.
    """
    ops = bind_cell_ops(program, _compile_cell_type)
    variation = dict(delay_variation or {})
    delays = [
        op.delay_ps * variation.get(op.cell_name, 1.0) if variation else op.delay_ps
        for op in program.ops
    ]
    energies = [2.0 * op.energy_fj for op in program.ops]
    valid_planes, samples = normalize_input_planes(program, inputs)
    spacer_planes, _ = normalize_input_planes(
        program, {net: np.asarray([int(v)], dtype=np.uint8) for net, v in spacer.items()}
    )
    forward = _phase_sweep(program, ops, delays, spacer_planes, valid_planes)
    backward = _phase_sweep(program, ops, delays, valid_planes, spacer_planes)

    values: Dict[str, np.ndarray] = {}
    spacer_values: Dict[str, Optional[int]] = {}
    arrival_valid: Dict[str, np.ndarray] = {}
    arrival_reset: Dict[str, np.ndarray] = {}
    for net in program.nets:
        start, final, arrival = forward[net]
        values[net] = np.ascontiguousarray(np.broadcast_to(final, (samples,)))
        rest = int(start[0])  # spacer-side planes are always shape (1,)
        spacer_values[net] = None if rest == int(X) else rest
        arrival_valid[net] = arrival
        arrival_reset[net] = backward[net][2]

    energy = np.zeros(samples, dtype=np.float64)
    activity_by_cell: Dict[str, int] = {}
    activity_by_type: Dict[str, int] = {}
    for op, per_toggle in zip(ops, energies):
        start, final, _arrival = forward[op.out_net]
        toggled = _changed(start, final)
        toggles = int(np.count_nonzero(np.broadcast_to(toggled, (samples,))))
        if toggles:
            transitions = 2 * toggles
            activity_by_cell[op.cell_name] = transitions
            activity_by_type[op.cell_type] = (
                activity_by_type.get(op.cell_type, 0) + transitions
            )
            if per_toggle:
                energy += np.where(toggled, per_toggle, 0.0)
    return SimpleNamespace(
        samples=samples,
        values=values,
        spacer_values=spacer_values,
        arrival_valid=arrival_valid,
        arrival_reset=arrival_reset,
        energy_per_sample_fj=energy,
        activity_by_cell=activity_by_cell,
        activity_by_cell_type=activity_by_type,
    )
