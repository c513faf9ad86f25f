"""The table-driven event engine against the seed engine it replaced.

:class:`repro.sim.GateLevelSimulator` runs its event loop on integer net
and cell tables with tuple heap entries; ``event_reference`` keeps the seed
engine verbatim (an ``Event`` object per scheduled change, string net
names, a pin dict per evaluation).  Both engines are driven through the
same protocol environments and must agree event for event — every
``NetTrace`` (times and values), the transition log, ``events_processed``,
the settled values, every monitor callback and the monitor verdicts:

* on every differential-fuzz netlist (``FUZZ_SEEDS``): handshake operands,
  then X-laden and forbidden-codeword stimulus with equal-time collisions;
* on the clocked single-rail baseline (the flip-flop path);
* on cyclic netlists (a latch and a ring oscillator), which
  :func:`~repro.sim.program.compile_program` rejects;

each with and without a seeded per-instance delay variation.  The delay
tests pin the one load model: every cell's event delay is the compiled
program's ``delay_ps`` times its variation factor.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuits import Netlist
from repro.datapath.datapath import DatapathConfig
from repro.datapath.sync_datapath import SingleRailDatapath
from repro.sim import (
    DualRailEnvironment,
    ForbiddenStateMonitor,
    GateLevelSimulator,
    Monitor,
    MonotonicityMonitor,
    SimulationError,
    SynchronousEnvironment,
    compile_program,
)
from repro.synth.flow import synthesize

import event_reference
from test_differential_fuzz import FUZZ_SEEDS, _fuzz_case, _timed_tags_netlist

ENGINES = (GateLevelSimulator, event_reference.GateLevelSimulator)
#: Handshake operands per fuzz netlist before the X-laden tail.
FUZZ_OPERANDS = 6


class _Recorder(Monitor):
    """Records every monitor callback verbatim."""

    def __init__(self) -> None:
        self.calls = []

    def on_net_change(self, time, net, old, new, cause):
        self.calls.append((time, net, old, new, cause))


def _variation(netlist, seed):
    """A seeded per-instance delay factor for every cell of *netlist*."""
    rng = np.random.default_rng(seed)
    return {cell.name: float(rng.uniform(0.75, 1.3)) for cell in netlist.iter_cells()}


def _observe(sim, recorder, verdict_monitors):
    """Everything the two engines must agree on, as plain data."""
    return {
        "time": sim.time,
        "events_processed": sim.events_processed,
        "values": dict(sim.values),
        "traces": [
            (name, list(trace.times), list(trace.values))
            for name, trace in sim.waveform.traces.items()
        ],
        "transition_log": [
            (r.time, r.cell, r.cell_type, r.net, r.value)
            for r in sim.transitions_between(-math.inf, math.inf)
        ],
        "histogram": sim.transition_count_by_cell_type(),
        "callbacks": recorder.calls,
        "verdicts": [
            [(v.time, v.net, v.message) for v in monitor.violations]
            for monitor in verdict_monitors
        ],
    }


def _assert_same(observations, detail):
    new, ref = observations
    assert new.keys() == ref.keys()
    for key in new:
        assert new[key] == ref[key], f"{key} differs from the reference ({detail})"


def _fuzz_run(engine, circuit, library, seed, variation):
    """Handshake operands, then X-laden stimulus with equal-time collisions."""
    sim = engine(circuit.netlist, library, delay_variation=variation)
    recorder = sim.add_monitor(_Recorder())
    mono = sim.add_monitor(MonotonicityMonitor())
    forbidden = sim.add_monitor(ForbiddenStateMonitor(sim, circuit.outputs))
    env = DualRailEnvironment(circuit, sim, grace_period=25.0, monotonicity_monitor=mono)
    rng = np.random.default_rng(seed)
    results = [
        env.infer({sig.name: int(rng.integers(0, 2)) for sig in circuit.inputs})
        for _ in range(FUZZ_OPERANDS)
    ]
    rails = list(circuit.netlist.primary_inputs)
    for _ in range(4):
        for offset in (0.0, 3.0, 3.0, 11.0):
            chosen = rng.choice(len(rails), size=max(1, len(rails) // 2), replace=False)
            sim.set_inputs(
                {rails[k]: [0, 1, None][int(rng.integers(0, 3))] for k in chosen},
                at=sim.time + offset,
            )
        sim.settle()
    return results, _observe(sim, recorder, [mono, forbidden])


@pytest.mark.parametrize("varied", [False, True], ids=["nominal", "varied"])
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_event_engine_matches_reference_on_fuzz_netlists(seed, varied):
    """Dual-rail handshakes plus X-laden stimulus, event for event."""
    _, circuit, library = _fuzz_case(seed)
    variation = _variation(circuit.netlist, seed) if varied else None
    runs = [_fuzz_run(engine, circuit, library, seed, variation) for engine in ENGINES]
    assert runs[0][0] == runs[1][0], f"inference results differ (seed={seed})"
    _assert_same([obs for _, obs in runs], f"seed={seed}, varied={varied}")
    assert runs[0][1]["events_processed"] > 0


@pytest.mark.parametrize("varied", [False, True], ids=["nominal", "varied"])
def test_event_engine_matches_reference_on_clocked_baseline(umc, varied):
    """The synchronous single-rail baseline: the flip-flop rising-edge path."""
    datapath = SingleRailDatapath(DatapathConfig(num_features=3, clauses_per_polarity=2))
    synthesis = synthesize(datapath.netlist, umc, clocked=True)
    assert "DFF" in synthesis.netlist.count_by_type()
    variation = _variation(synthesis.netlist, 7) if varied else None
    observations, outputs = [], []
    for engine in ENGINES:
        sim = engine(synthesis.netlist, umc, delay_variation=variation)
        recorder = sim.add_monitor(_Recorder())
        rng = np.random.default_rng(7)
        # Power up with the clock high: the X -> 1 edge clocks the flip-flops.
        sim.set_input(datapath.interface.clock_net, 1)
        inputs = datapath.interface.input_nets.values()
        sim.set_inputs({net: int(rng.integers(0, 2)) for net in inputs})
        sim.settle()
        env = SynchronousEnvironment(
            sim,
            clock_net=datapath.interface.clock_net,
            input_nets=datapath.interface.input_nets,
            output_nets=datapath.interface.output_nets,
            clock_period=synthesis.clock_period,
        )
        operands = [
            {name: int(rng.integers(0, 2)) for name in datapath.interface.input_nets}
            for _ in range(8)
        ]
        outputs.append(
            [env.run_operand(operand).outputs for operand in operands[:4]]
            + env.run_pipelined(operands[4:])
        )
        observations.append(_observe(sim, recorder, []))
    assert outputs[0] == outputs[1]
    _assert_same(observations, f"clocked baseline, varied={varied}")


@pytest.mark.parametrize("varied", [False, True], ids=["nominal", "varied"])
def test_event_engine_matches_reference_on_every_dispatch_tag(umc, varied):
    """Every evaluator tag through 0/1/X input sequences with skew and paused recording."""
    netlist = _timed_tags_netlist()
    variation = _variation(netlist, 11) if varied else None
    observations = []
    for engine in ENGINES:
        sim = engine(netlist, umc, delay_variation=variation)
        recorder = sim.add_monitor(_Recorder())
        rng = np.random.default_rng(11)
        for step in range(40):
            sim.record_waveform = step % 10 < 7  # recording paused mid-run
            for net in ("a", "b", "c", "d"):
                value = [0, 1, None][int(rng.integers(0, 3))]
                sim.set_input(net, value, at=sim.time + float(rng.integers(0, 4)) * 5.0)
            sim.settle()
        observations.append(_observe(sim, recorder, []))
    _assert_same(observations, f"dispatch tags, varied={varied}")


def _cyclic_netlist():
    """A cross-coupled NOR latch and a NAND-gated inverter ring oscillator."""
    net = Netlist("cyclic")
    for name in ("s", "r", "en"):
        net.add_input(name)
    net.add_cell("NOR2", {"A": "r", "B": "qb"}, {"Y": "q"}, name="latch_q")
    net.add_cell("NOR2", {"A": "s", "B": "q"}, {"Y": "qb"}, name="latch_qb")
    net.add_cell("NAND2", {"A": "en", "B": "ring2"}, {"Y": "ring0"}, name="ring_gate")
    net.add_cell("INV", {"A": "ring0"}, {"Y": "ring1"}, name="ring_inv1")
    net.add_cell("INV", {"A": "ring1"}, {"Y": "ring2"}, name="ring_inv2")
    for name in ("q", "qb", "ring0"):
        net.add_output(name)
    return net


@pytest.mark.parametrize("varied", [False, True], ids=["nominal", "varied"])
def test_event_engine_matches_reference_on_cyclic_netlists(umc, varied):
    """Feedback loops: latch set/reset, a metastable release, a free-running ring."""
    netlist = _cyclic_netlist()
    variation = _variation(netlist, 3) if varied else None
    observations, outcomes = [], []
    for engine in ENGINES:
        sim = engine(netlist, umc, delay_variation=variation)
        recorder = sim.add_monitor(_Recorder())
        outcome = []
        for stimulus in (
            {"s": 1, "r": 0, "en": 0},
            {"s": 0},
            {"r": 1},
            {"s": 1},
            {"s": 0, "r": 0},  # simultaneous release: may oscillate
            {"en": 1},  # the ring runs until the event budget trips
        ):
            sim.set_inputs(stimulus)
            try:
                outcome.append(sim.settle(max_events=60))
            except SimulationError as err:
                outcome.append(str(err))
                sim.run(until=sim.time + 40.0)
        observations.append(_observe(sim, recorder, []))
        outcomes.append(outcome)
    assert outcomes[0] == outcomes[1]
    assert any(isinstance(step, str) for step in outcomes[0])  # the ring never settles
    _assert_same(observations, f"cyclic, varied={varied}")


def test_event_delay_table_matches_compiled_program():
    """One load model: event delay == program ``delay_ps`` x variation factor."""
    for seed in FUZZ_SEEDS:
        _, circuit, library = _fuzz_case(seed)
        for vdd in (None, 0.8):
            program = compile_program(circuit.netlist, library, vdd=vdd)
            assert program.characterized
            for factors in (None, _variation(circuit.netlist, seed)):
                sim = GateLevelSimulator(
                    circuit.netlist, library, vdd=vdd, delay_variation=factors
                )
                for op in program.ops:
                    factor = 1.0 if factors is None else factors[op.cell_name]
                    assert sim.cell_delay(op.cell_name) == op.delay_ps * factor, (
                        f"seed={seed}, vdd={vdd}, cell={op.cell_name!r}"
                    )


def test_event_delay_table_is_keyed_by_instance(umc):
    """Instance and net names containing separators keep their own delays."""
    netlist = Netlist("two")
    netlist.add_input("a")
    netlist.add_cell("INV", {"A": "a"}, {"Y": "x:y"}, name="g")
    netlist.add_cell("INV", {"A": "x:y"}, {"Y": "z"}, name="g:x")
    netlist.add_output("z")
    program = compile_program(netlist, umc)
    sim = GateLevelSimulator(netlist, umc)
    delays = {op.cell_name: op.delay_ps for op in program.ops}
    assert {name: sim.cell_delay(name) for name in delays} == delays
    assert delays["g"] != delays["g:x"]  # different loads, different delays
    sim.set_input("a", 1)
    assert sim.settle() == delays["g"] + delays["g:x"]
