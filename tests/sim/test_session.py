"""Contract tests for :class:`repro.sim.backends.session.BackendSession`.

The load-bearing property: a session bound to the constant input nets is a
pure refactoring of the call site — ``session.run_arrays(varying)`` and
``session.run_timed(varying, spacer)`` are bit-identical to handing the
backend the fully merged stimulus directly, on both vectorized backends.
The serving worker relies on this to bind the exclude-rail configuration
once and stream only feature planes per micro-batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.measure import (
    build_mapped_dual_rail,
    default_workload,
    spacer_assignments,
    workload_input_planes,
)
from repro.sim.backends import (
    BackendError,
    BackendSession,
    BatchBackend,
    BitpackBackend,
    EventBackend,
)


@pytest.fixture(scope="module")
def workload():
    return default_workload(num_features=4, clauses_per_polarity=8, num_operands=12)


def _split_planes(planes):
    """Split full input planes into (constant scalars, varying arrays)."""
    constants, varying = {}, {}
    for net, plane in planes.items():
        plane = np.asarray(plane)
        if np.all(plane == plane.flat[0]):
            constants[net] = int(plane.flat[0])
        else:
            varying[net] = plane
    assert constants and varying, "test needs both kinds of net"
    return constants, varying


@pytest.mark.parametrize("backend_cls", [BatchBackend, BitpackBackend])
def test_session_run_arrays_matches_direct_merged_call(umc, workload, backend_cls):
    """Functional results are bit-identical to the unmerged direct call."""
    mapped = build_mapped_dual_rail(workload.config, umc)
    backend = backend_cls(mapped.circuit.netlist, umc)
    planes = workload_input_planes(mapped.circuit, mapped.datapath, workload)
    constants, varying = _split_planes(planes)

    direct = backend.run_arrays(planes)
    session = BackendSession(backend, constants)
    via_session = session.run_arrays(varying)

    assert via_session.samples == direct.samples
    for rail in mapped.circuit.all_output_rails():
        np.testing.assert_array_equal(via_session.values[rail], direct.values[rail])


@pytest.mark.parametrize("backend_cls", [BatchBackend, BitpackBackend])
def test_session_run_timed_matches_direct_merged_call(umc, workload, backend_cls):
    """Timed latency/energy are bit-identical to the unmerged direct call."""
    mapped = build_mapped_dual_rail(workload.config, umc)
    backend = backend_cls(mapped.circuit.netlist, umc)
    planes = workload_input_planes(mapped.circuit, mapped.datapath, workload)
    spacer = spacer_assignments(mapped.circuit)
    constants, varying = _split_planes(planes)
    rails = mapped.circuit.all_output_rails()

    direct = backend.run_timed(planes, spacer)
    session = BackendSession(backend, constants)
    via_session = session.run_timed(varying, spacer)

    np.testing.assert_array_equal(
        via_session.max_arrival(rails, "valid"), direct.max_arrival(rails, "valid")
    )
    np.testing.assert_array_equal(
        via_session.energy_per_sample_fj, direct.energy_per_sample_fj
    )


def test_session_reuses_cached_constant_planes(umc, workload):
    """Same batch size -> the broadcast constant planes are built once."""
    mapped = build_mapped_dual_rail(workload.config, umc)
    backend = BatchBackend(mapped.circuit.netlist, umc)
    planes = workload_input_planes(mapped.circuit, mapped.datapath, workload)
    constants, varying = _split_planes(planes)
    session = BackendSession(backend, constants)

    session.run_arrays(varying)
    first = session._plane_cache[workload.num_operands]
    session.run_arrays(varying)
    assert session._plane_cache[workload.num_operands] is first

    ragged = {net: plane[:5] for net, plane in varying.items()}
    session.run_arrays(ragged)
    assert set(session._plane_cache) == {workload.num_operands, 5}


def test_session_rejects_overlapping_and_unknown_nets(umc, workload):
    """Overlap with bound constants and unknown nets fail loudly."""
    mapped = build_mapped_dual_rail(workload.config, umc)
    backend = BatchBackend(mapped.circuit.netlist, umc)
    planes = workload_input_planes(mapped.circuit, mapped.datapath, workload)
    constants, varying = _split_planes(planes)

    with pytest.raises(KeyError, match="does not exist"):
        BackendSession(backend, {"no_such_net": 1})
    for bad in (2, 0.6, 1.9, -255, 256):
        with pytest.raises(BackendError, match="must be Boolean"):
            BackendSession(backend, {next(iter(constants)): bad})

    session = BackendSession(backend, constants)
    overlap_net = next(iter(constants))
    bad = dict(varying)
    bad[overlap_net] = np.zeros(workload.num_operands, dtype=np.uint8)
    with pytest.raises(BackendError, match="overlap bound constants"):
        session.run_arrays(bad)


def test_session_requires_a_vectorized_backend(umc, workload):
    """The event backend has no run_arrays; sessions refuse it upfront."""
    mapped = build_mapped_dual_rail(workload.config, umc)
    event = EventBackend(mapped.circuit.netlist, umc)
    with pytest.raises(BackendError, match="run_arrays"):
        BackendSession(event)
