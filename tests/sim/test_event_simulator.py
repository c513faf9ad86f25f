"""Unit tests for the event queue, waveform store and gate-level simulator.

The event-queue tests exercise the test-only reference engine's
:class:`event_reference.EventQueue`, which the equivalence suite
(``test_event_equivalence.py``) holds the table-driven simulator to.
"""

import pytest

from repro.circuits import LogicBuilder
from repro.sim import GateLevelSimulator, SimulationError, Waveform

from event_reference import EventQueue


def test_event_queue_orders_by_time_then_sequence():
    queue = EventQueue()
    queue.schedule(10.0, "b", 1)
    queue.schedule(5.0, "a", 1)
    queue.schedule(5.0, "c", 0)
    first = queue.pop()
    second = queue.pop()
    third = queue.pop()
    assert first.net == "a" and second.net == "c" and third.net == "b"


def test_event_queue_pop_simultaneous_batches_equal_times():
    queue = EventQueue()
    queue.schedule(3.0, "a", 1)
    queue.schedule(3.0, "b", 0)
    queue.schedule(7.0, "c", 1)
    batch = queue.pop_simultaneous()
    assert {e.net for e in batch} == {"a", "b"}
    assert len(queue) == 1


def test_event_queue_rejects_negative_time():
    with pytest.raises(ValueError):
        EventQueue().schedule(-1.0, "a", 1)


def test_waveform_records_and_queries_values():
    wave = Waveform()
    wave.record("x", 0.0, 0)
    wave.record("x", 10.0, 1)
    wave.record("x", 10.0, 1)  # duplicate value is collapsed
    assert wave.value_at("x", 5.0) == 0
    assert wave.value_at("x", 15.0) == 1
    # transition_count counts changes strictly after `since` (default 0.0),
    # so the power-up assignment at t=0 is excluded.
    assert wave.trace("x").transition_count() == 1
    assert wave.trace("x").transition_count(since=-1.0) == 2
    assert wave.first_transition_after("x", 0.0, lambda v: v == 1) == 10.0


def test_simulator_propagates_through_gate_chain(umc):
    builder = LogicBuilder("chain")
    a = builder.input("a")
    y = builder.not_(builder.not_(builder.not_(a)))
    builder.output("y", y)
    sim = GateLevelSimulator(builder.netlist, umc)
    sim.set_input("a", 1)
    sim.settle()
    assert sim.value("y") == 0
    sim.set_input("a", 0)
    sim.settle()
    assert sim.value("y") == 1


def test_simulator_delay_accumulates_over_levels(umc):
    builder = LogicBuilder("delay")
    a = builder.input("a")
    one = builder.not_(a)
    two = builder.not_(one)
    builder.output("y", two)
    sim = GateLevelSimulator(builder.netlist, umc)
    sim.set_input("a", 1)
    end = sim.settle()
    single_inv = umc.cell_delay("INV", 0.0)
    assert end > single_inv  # two inverter levels plus the output buffer


def test_simulator_respects_supply_voltage_scaling(umc):
    builder = LogicBuilder("vdd")
    a = builder.input("a")
    builder.output("y", builder.not_(a))
    fast = GateLevelSimulator(builder.netlist, umc, vdd=1.2)
    slow = GateLevelSimulator(builder.netlist, umc, vdd=0.7)
    fast.set_input("a", 1)
    slow.set_input("a", 1)
    assert slow.settle() > fast.settle()


def test_simulator_rejects_non_functional_voltage(umc):
    builder = LogicBuilder("toolow")
    a = builder.input("a")
    builder.output("y", builder.not_(a))
    with pytest.raises(SimulationError):
        GateLevelSimulator(builder.netlist, umc, vdd=0.2)


def test_simulator_glitch_resolves_to_final_value(umc):
    # A two-input OR whose inputs swap with different arrival times must end
    # at the correct steady-state value regardless of intermediate events.
    builder = LogicBuilder("glitch")
    a, b = builder.input("a"), builder.input("b")
    builder.output("y", builder.or_(a, b))
    sim = GateLevelSimulator(builder.netlist, umc)
    sim.set_inputs({"a": 1, "b": 0})
    sim.settle()
    assert sim.value("y") == 1
    # Swap the inputs with a slight skew: a falls now, b rises a bit later.
    sim.set_input("a", 0)
    sim.set_input("b", 1, at=sim.time + 5.0)
    sim.settle()
    assert sim.value("y") == 1
    # Now both fall with a skew; the output must settle to 0.
    sim.set_input("b", 0)
    sim.set_input("a", 0, at=sim.time + 3.0)
    sim.settle()
    assert sim.value("y") == 0


def test_dff_samples_on_rising_edge(umc):
    builder = LogicBuilder("ff")
    d, clk = builder.input("d"), builder.input("clk")
    builder.output("q", builder.dff(d, clk))
    sim = GateLevelSimulator(builder.netlist, umc)
    sim.set_inputs({"d": 1, "clk": 0})
    sim.settle()
    assert sim.value("q") is None  # not yet clocked
    sim.set_input("clk", 1)
    sim.settle()
    assert sim.value("q") == 1
    # Changing D with the clock high must not propagate until the next edge.
    sim.set_input("d", 0)
    sim.settle()
    assert sim.value("q") == 1
    sim.set_input("clk", 0)
    sim.settle()
    sim.set_input("clk", 1)
    sim.settle()
    assert sim.value("q") == 0


def test_c_element_holds_state(umc):
    builder = LogicBuilder("celem")
    a, b = builder.input("a"), builder.input("b")
    builder.output("q", builder.c_element(a, b))
    sim = GateLevelSimulator(builder.netlist, umc)
    sim.set_inputs({"a": 0, "b": 0})
    sim.settle()
    assert sim.value("q") == 0
    sim.set_inputs({"a": 1, "b": 0})
    sim.settle()
    assert sim.value("q") == 0  # holds until both inputs agree
    sim.set_input("b", 1)
    sim.settle()
    assert sim.value("q") == 1
    sim.set_input("a", 0)
    sim.settle()
    assert sim.value("q") == 1  # holds again


def test_transition_log_and_statistics(umc):
    builder = LogicBuilder("stats")
    a = builder.input("a")
    builder.output("y", builder.not_(a))
    sim = GateLevelSimulator(builder.netlist, umc)
    sim.set_input("a", 1)
    sim.settle()
    histogram = sim.transition_count_by_cell_type()
    assert histogram.get("INV") == 1
    sim.reset_statistics()
    assert sim.transition_count_by_cell_type() == {}


def _traced_testbench(umc):
    from repro.analysis.measure import build_mapped_dual_rail, make_dual_rail_environment
    from repro.datapath.datapath import DatapathConfig

    mapped = build_mapped_dual_rail(DatapathConfig(num_features=2, clauses_per_polarity=1), umc)
    return mapped, make_dual_rail_environment(mapped)


def test_infer_emits_one_event_span_with_its_event_count(umc):
    from repro.obs import trace

    mapped, bench = _traced_testbench(umc)
    operand = {sig.name: 1 for sig in mapped.circuit.inputs}
    trace.reset()
    trace.enable()
    try:
        before = bench.simulator.events_processed
        bench.environment.infer(operand)
        delta = bench.simulator.events_processed - before
        records = trace.records()
    finally:
        trace.reset()
        trace.disable()
    (span,) = [r for r in records if r.name.startswith("event.")]
    assert span.name == "event.infer"
    assert span.attrs == {"operands": 1, "events": delta}
    assert delta > 0

    bench.environment.infer(operand)  # tracing disabled: nothing recorded
    assert trace.records() == []


def test_reset_and_synchronous_runs_emit_settle_spans(umc):
    from repro.datapath.datapath import DatapathConfig
    from repro.datapath.sync_datapath import SingleRailDatapath
    from repro.obs import trace
    from repro.sim import SynchronousEnvironment
    from repro.synth.flow import synthesize

    datapath = SingleRailDatapath(DatapathConfig(num_features=2, clauses_per_polarity=1))
    synthesis = synthesize(datapath.netlist, umc, clocked=True)
    sim = GateLevelSimulator(synthesis.netlist, umc)
    env = SynchronousEnvironment(
        sim, datapath.interface.clock_net, datapath.interface.input_nets,
        datapath.interface.output_nets, synthesis.clock_period,
    )
    operand = {name: 1 for name in datapath.interface.input_nets}
    trace.reset()
    trace.enable()
    try:
        _traced_testbench(umc)  # make_dual_rail_environment resets once
        before = sim.events_processed
        env.run_operand(operand)
        delta = sim.events_processed - before
        env.run_pipelined([operand, operand])
        spans = [r for r in trace.records() if r.name.startswith("event.")]
    finally:
        trace.reset()
        trace.disable()
    assert [(r.name, r.attrs["operands"]) for r in spans] == [
        ("event.settle", 0), ("event.settle", 1), ("event.settle", 2),
    ]
    assert spans[1].attrs["events"] == delta > 0


def test_tie_cells_drive_constants_at_time_zero(umc):
    from repro.circuits import Netlist

    net = Netlist("ties")
    net.add_input("a")
    net.add_cell("TIE1", {}, {"Y": "one"}, name="t1")
    net.add_cell("TIE0", {}, {"Y": "zero"}, name="t0")
    net.add_cell("AND2", {"A": "a", "B": "one"}, {"Y": "y"}, name="g")
    net.add_cell("OR2", {"A": "a", "B": "zero"}, {"Y": "z"}, name="h")
    net.add_output("y")
    net.add_output("z")
    sim = GateLevelSimulator(net, umc)
    assert sim.step()  # the constants commit at t = 0
    assert sim.time == 0.0 and sim.values_of(["one", "zero"]) == [1, 0]
    sim.set_input("a", 1)
    sim.settle()
    assert sim.values_of(["y", "z"]) == [1, 1]
    assert sim.transition_count_by_cell_type(start=-1.0) == {
        "TIE1": 1, "TIE0": 1, "AND2": 1, "OR2": 1,
    }
    assert not sim.step()  # idle


def test_cell_missing_from_library_raises_only_when_it_switches(full_diffusion):
    from repro.circuits import Netlist

    net = Netlist("aoi32")
    for name in ("a", "b"):
        net.add_input(name)
    pins = {"A1": "a", "A2": "a", "A3": "a", "B1": "b", "B2": "b"}
    net.add_cell("AOI32", pins, {"Y": "y"}, name="g")
    net.add_output("y")
    sim = GateLevelSimulator(net, full_diffusion)  # builds: nothing switched yet
    with pytest.raises(KeyError, match="AOI32"):
        sim.cell_delay("g")
    sim.set_inputs({"a": 1, "b": 1})
    with pytest.raises(KeyError, match="not available in library"):
        sim.settle()


def test_set_input_rejects_unknown_nets_and_past_times(umc):
    builder = LogicBuilder("stim")
    a = builder.input("a")
    builder.output("y", builder.not_(a))
    sim = GateLevelSimulator(builder.netlist, umc)
    with pytest.raises(KeyError, match="unknown net"):
        sim.set_input("nope", 1)
    sim.run(until=10.0)
    with pytest.raises(ValueError, match="in the past"):
        sim.set_input("a", 1, at=5.0)
    sim.time = -2.0
    with pytest.raises(ValueError, match="non-negative"):
        sim.set_input("a", 1, at=-1.0)
