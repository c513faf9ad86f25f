"""Cross-backend differential fuzzing over randomized mapped netlists.

The contract this suite enforces mechanically: both vectorized engines
(the batch and bitpack backends, each running the grouped kernel of
:mod:`repro.sim.kernels`) are **bit-identical** to the test-only per-cell
reference evaluator (``cell_reference.reference_run``) — settled net
values *and* switching-activity counts — and agree with the event-driven
simulator on settled values.  The grouped timed engine
(:mod:`repro.sim.backends.timed`) is held to its test-only per-cell
reference (``timed_reference.reference_timed_run``) the same way: both
arrival phases, valid and spacer values and activity bit-identical,
per-sample energy within ``rtol=1e-9``, with and without a seeded
per-instance delay variation.  (Event-simulator activity is
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
from repro.circuits import Netlist, full_diffusion_library, umc_ll_library
from repro.datapath.datapath import DatapathConfig, DualRailDatapath
from repro.sim import compile_program
from repro.sim.backends import EventBackend
from repro.sim.backends.batch import BatchBackend
from repro.sim.backends.bitpack import BitpackBackend
from repro.sim.backends.timed import TimedProgram

from cell_reference import reference_run
from timed_reference import reference_timed_run

#: The fixed seed matrix CI replays (kernel-smoke job).  Each seed is an
#: independent random netlist + stimulus; extend the list to widen the net.
FUZZ_SEEDS = [101, 202, 303, 404]

#: Batch sizes covering the bitpack lane boundaries (1 word, word-1,
#: exactly one word, word+1, many ragged words).
BATCH_SIZES = (1, 63, 64, 65, 1000)

#: Documented energy tolerance of the timed engine against the per-cell
#: reference (arrivals, values and activity must match exactly).
ENERGY_RTOL = 1e-9

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


def _delay_variation(program, seed):
    """A seeded per-instance delay multiplier for every cell of *program*."""
    rng = np.random.default_rng(seed)
    return {op.cell_name: float(rng.uniform(0.75, 1.3)) for op in program.ops}


def _assert_timed_matches_reference(seed, program, got, want, detail):
    """Grouped timed engine vs per-cell reference, field by field."""
    assert got.samples == want.samples, _context(seed, program, f"samples {detail}")
    for net in program.nets:
        for phase, planes in (("valid", want.arrival_valid),
                              ("reset", want.arrival_reset)):
            expected = np.broadcast_to(planes[net], (want.samples,))
            assert np.array_equal(got.arrival_of(net, phase), expected), _context(
                seed, program, f"{phase} arrival of {net!r} {detail}"
            )
        assert np.array_equal(got.values[net], want.values[net]), _context(
            seed, program, f"value of {net!r} {detail}"
        )
        assert got.spacer_values[net] == want.spacer_values[net], _context(
            seed, program, f"spacer value of {net!r} {detail}"
        )
    assert got.activity_by_cell == want.activity_by_cell, _context(
        seed, program, f"per-cell activity {detail}"
    )
    assert got.activity_by_cell_type == want.activity_by_cell_type, _context(
        seed, program, f"per-type activity {detail}"
    )
    np.testing.assert_allclose(
        got.energy_per_sample_fj, want.energy_per_sample_fj, rtol=ENERGY_RTOL,
        err_msg=_context(seed, program, f"energy {detail}"),
    )


@pytest.mark.parametrize("varied", [False, True], ids=["nominal", "varied"])
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_timed_engine_matches_per_cell_reference(seed, varied):
    """Grouped timed engine vs the per-cell timed reference, every lane shape."""
    rng, circuit, library = _fuzz_case(seed)
    program = compile_program(circuit.netlist, library)
    spacer = spacer_assignments(circuit)
    variation = _delay_variation(program, seed) if varied else None
    engine = TimedProgram.from_program(program, delay_variation=variation)
    for samples in BATCH_SIZES:
        stimulus = _random_stimulus(rng, circuit, samples)
        want = reference_timed_run(program, stimulus, spacer, variation)
        got = engine.run(stimulus, spacer)
        _assert_timed_matches_reference(
            seed, program, got, want, f"at {samples} samples (varied={varied})"
        )


def _timed_tags_netlist() -> Netlist:
    """Every timed dispatch tag, fed by earlier levels so arrivals are non-zero.

    Complex gates get mixed pin groups (single pins next to 2- and 3-pin
    groups), and a third level consumes the complex outputs again.
    """
    net = Netlist("timed-tags")
    for name in ("a", "b", "c", "d"):
        net.add_input(name)
    cells = [
        # Level 1: simple gates straight off the inputs.
        ("INV", {"A": "a"}, "n_inv"),
        ("BUF", {"A": "b"}, "n_buf"),
        ("NAND2", {"A": "a", "B": "c"}, "n_nand"),
        ("NOR2", {"A": "b", "B": "d"}, "n_nor"),
        ("AND3", {"A": "a", "B": "b", "C": "d"}, "n_and"),
        ("OR3", {"A": "b", "B": "c", "C": "d"}, "n_or"),
        # Level 2: every other tag over level-1 nets.
        ("XOR2", {"A": "n_inv", "B": "n_buf"}, "n_xor"),
        ("XNOR2", {"A": "n_nand", "B": "c"}, "n_xnor"),
        ("MAJ3", {"A": "n_inv", "B": "n_nor", "C": "n_or"}, "n_maj"),
        ("C2", {"A": "n_and", "B": "n_nand"}, "n_c2"),
        ("C3", {"A": "n_buf", "B": "n_or", "C": "d"}, "n_c3"),
        ("AOI21", {"A1": "n_nand", "A2": "n_or", "B": "n_nor"}, "n_aoi21"),
        ("AOI32", {"A1": "n_inv", "A2": "n_or", "A3": "c",
                   "B1": "n_nand", "B2": "n_buf"}, "n_aoi32"),
        ("OAI22", {"A1": "n_and", "A2": "n_nor",
                   "B1": "n_inv", "B2": "d"}, "n_oai22"),
        ("OAI32", {"A1": "n_buf", "A2": "n_nand", "A3": "a",
                   "B1": "n_or", "B2": "n_nor"}, "n_oai32"),
        ("AO21", {"A1": "n_or", "A2": "n_nand", "B": "n_and"}, "n_ao21"),
        ("AO22", {"A1": "n_inv", "A2": "c", "B1": "n_nor", "B2": "n_or"}, "n_ao22"),
        ("OA21", {"A1": "n_and", "A2": "n_buf", "B": "n_nand"}, "n_oa21"),
        ("OA22", {"A1": "n_nor", "A2": "n_inv", "B1": "n_or", "B2": "b"}, "n_oa22"),
        # Level 3: complex and early-propagating gates over complex outputs.
        ("NOR3", {"A": "n_aoi21", "B": "n_oa21", "C": "n_maj"}, "n_nor3"),
        ("NAND4", {"A": "n_aoi32", "B": "n_ao22", "C": "n_c2", "D": "n_xor"},
         "n_nand4"),
        ("AOI22", {"A1": "n_oai22", "A2": "n_ao21",
                   "B1": "n_oai32", "B2": "n_c3"}, "n_aoi22"),
        ("OAI21", {"A1": "n_oa22", "A2": "n_xnor", "B": "n_maj"}, "n_oai21"),
    ]
    for i, (cell_type, pins, out) in enumerate(cells):
        net.add_cell(cell_type, pins, {"Y": out}, name=f"g{i}_{cell_type.lower()}")
        net.add_output(out)
    return net


@pytest.mark.parametrize("varied", [False, True], ids=["nominal", "varied"])
@pytest.mark.parametrize("x_laden", [False, True], ids=["boolean", "x_laden"])
def test_timed_engine_covers_every_dispatch_tag(umc, x_laden, varied):
    """Every tag's early-propagation rule matches the reference, across blocks."""
    program = compile_program(_timed_tags_netlist(), umc)
    rng = np.random.default_rng(17)
    samples = 1100  # more than two 512-column sample blocks
    inputs = ("a", "b", "c") if x_laden else ("a", "b", "c", "d")
    stimulus = {
        net: rng.integers(0, 2, size=samples, dtype=np.uint8) for net in inputs
    }
    for spacer in ({"a": 0, "b": 0, "c": 0, "d": 0}, {"a": 1, "b": 0, "c": 1, "d": 1}):
        variation = _delay_variation(program, 5) if varied else None
        want = reference_timed_run(program, stimulus, spacer, variation)
        got = TimedProgram(program=program, delay_variation=variation).run(
            stimulus, spacer
        )
        _assert_timed_matches_reference(
            0, program, got, want, f"(spacer={spacer}, x_laden={x_laden})"
        )
