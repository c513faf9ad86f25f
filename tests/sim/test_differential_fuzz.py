"""Cross-backend differential fuzzing over randomized mapped netlists.

The contract this suite enforces mechanically: both vectorized engines
(the batch and bitpack backends, each running the grouped kernel of
:mod:`repro.sim.kernels`) are **bit-identical** to the test-only per-cell
reference evaluator (``cell_reference.reference_run``) — settled net
values *and* switching-activity counts — and agree with the event-driven
simulator on settled values.  (Event-simulator activity is
glitch-inclusive by design, so transition counts are checked against the
per-cell reference only; see
:meth:`repro.sim.backends.event.EventBackend.run_batch`.)

Each seed deterministically derives a datapath shape (width, clause count,
completion scheme, gate style, library, mapped or structural netlist) and a
stimulus matrix spanning the lane-packing edge cases — 1/63/64/65/1000
samples, all-spacer rest words, and X-laden partial assignments.  Failures
print the offending seed and the ``program_hash`` so a case can be replayed
(and shrunk) in isolation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.measure import (
    build_mapped_dual_rail,
    spacer_assignments,
)
from repro.circuits import full_diffusion_library, umc_ll_library
from repro.datapath.datapath import DatapathConfig, DualRailDatapath
from repro.sim import compile_program
from repro.sim.backends import EventBackend
from repro.sim.backends.batch import BatchBackend
from repro.sim.backends.bitpack import BitpackBackend

from cell_reference import reference_run

#: The fixed seed matrix CI replays (kernel-smoke job).  Each seed is an
#: independent random netlist + stimulus; extend the list to widen the net.
FUZZ_SEEDS = [101, 202, 303, 404]

#: Batch sizes covering the bitpack lane boundaries (1 word, word-1,
#: exactly one word, word+1, many ragged words).
BATCH_SIZES = (1, 63, 64, 65, 1000)

_LIBRARIES = {
    "umc": umc_ll_library,
    "full_diffusion": full_diffusion_library,
}


def _fuzz_case(seed):
    """Deterministically derive one random netlist + stimulus from *seed*."""
    rng = np.random.default_rng(seed)
    config = DatapathConfig(
        num_features=int(rng.integers(2, 5)),
        clauses_per_polarity=int(rng.integers(1, 4)),
        latch_inputs=bool(rng.integers(0, 2)),
        negative_gates=bool(rng.integers(0, 2)),
        completion=[None, "reduced", "full"][int(rng.integers(0, 3))],
    )
    library_name = ["umc", "full_diffusion"][int(rng.integers(0, 2))]
    library = _LIBRARIES[library_name]()
    if rng.integers(0, 2):
        # Technology-mapped variant (synthesized, interface re-bound).
        circuit = build_mapped_dual_rail(config, library).circuit
    else:
        # Structural datapath netlist straight out of the generator.
        circuit = DualRailDatapath(config, library=library).circuit
    return rng, circuit, library


def _random_stimulus(rng, circuit, samples):
    """Random Boolean planes for a random subset of the primary inputs.

    Leaving some inputs unassigned is the X-laden part of the matrix:
    unassigned rails must propagate unknowns identically in every engine.
    """
    nets = list(circuit.netlist.primary_inputs)
    keep = max(1, int(rng.integers(len(nets) // 2, len(nets) + 1)))
    chosen = list(rng.choice(nets, size=keep, replace=False))
    return {
        net: rng.integers(0, 2, size=samples, dtype=np.uint8)
        for net in chosen
    }


def _context(seed, program, detail):
    """Shrinking-friendly failure message: seed + program hash + detail."""
    return (
        f"differential fuzz mismatch (seed={seed}, "
        f"program_hash={program.program_hash}): {detail}"
    )


def _engines(netlist, library, program):
    """Both vectorized engines on one shared compiled program."""
    return {
        "batch": BatchBackend(netlist, library, program=program),
        "bitpack": BitpackBackend(netlist, library, program=program),
    }


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fused_paths_bit_identical_across_batch_shapes(seed):
    """Both engines vs the per-cell reference: values and activity, every lane shape."""
    rng, circuit, library = _fuzz_case(seed)
    netlist = circuit.netlist
    program = compile_program(netlist, library)
    spacer = spacer_assignments(circuit)
    engines = _engines(netlist, library, program)
    for samples in BATCH_SIZES:
        stimulus = _random_stimulus(rng, circuit, samples)
        reference = reference_run(program, stimulus, baseline=spacer)
        for kind, backend in engines.items():
            result = backend.run_arrays(stimulus, baseline=spacer)
            assert result.samples == samples, _context(
                seed, program, f"{kind} samples at {samples}"
            )
            for net in program.nets:
                assert np.array_equal(reference.values[net], result.values[net]), (
                    _context(
                        seed, program,
                        f"{kind} values of {net!r} at {samples} samples",
                    )
                )
            assert result.activity_by_cell == reference.activity_by_cell, (
                _context(
                    seed, program, f"{kind} per-cell activity at {samples} samples"
                )
            )
            assert (
                result.activity_by_cell_type == reference.activity_by_cell_type
            ), _context(
                seed, program, f"{kind} per-type activity at {samples} samples"
            )


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_all_spacer_rest_word_identical(seed):
    """The all-spacer word settles identically and toggles nothing on every engine."""
    _, circuit, library = _fuzz_case(seed)
    netlist = circuit.netlist
    program = compile_program(netlist, library)
    spacer = spacer_assignments(circuit)
    reference = reference_run(program, spacer, baseline=spacer)
    assert reference.activity_by_cell == {}
    for kind, backend in _engines(netlist, library, program).items():
        result = backend.run_arrays(spacer, baseline=spacer)
        for net in program.nets:
            assert np.array_equal(reference.values[net], result.values[net]), (
                _context(seed, program, f"{kind} spacer value of {net!r}")
            )
        assert result.activity_by_cell == reference.activity_by_cell, (
            _context(seed, program, f"{kind} spacer activity")
        )
        assert result.activity_by_cell_type == reference.activity_by_cell_type, (
            _context(seed, program, f"{kind} spacer per-type activity")
        )


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_event_reference_agrees_on_settled_values(seed):
    """Both engines and the per-cell reference match the event-driven simulator.

    The event reference settles one sample at a time, so only a small
    X-laden sample subset is replayed through it.
    """
    rng, circuit, library = _fuzz_case(seed)
    netlist = circuit.netlist
    program = compile_program(netlist, library)
    event = EventBackend(netlist, library)
    engines = _engines(netlist, library, program)
    stimulus = _random_stimulus(rng, circuit, 3)
    for k in range(3):
        assignments = {net: int(plane[k]) for net, plane in stimulus.items()}
        expected = event.evaluate(assignments)
        reference = reference_run(program, assignments).values
        assert {
            net: None if plane[0] == 2 else int(plane[0])
            for net, plane in reference.items()
        } == expected, _context(seed, program, f"event vs reference on sample {k}")
        for kind, backend in engines.items():
            got = backend.evaluate(assignments)
            assert got == expected, _context(
                seed, program, f"event vs {kind} on sample {k}"
            )
