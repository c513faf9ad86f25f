"""Simulation environments driving the two datapath styles.

:class:`DualRailEnvironment` implements the circuit environment assumed by
the paper (Requirements 1, 5 and 6 of Section III): it drives every primary
input with alternating spacer and valid codewords, never removes a valid
before the outputs have indicated spacer→valid, and waits the configured
grace period after returning the inputs to spacer before applying the next
operand (Requirement 4, the reduced-completion-detection timing assumption).

From every operand it measures the quantities Table I is built from:

* ``t_s_to_v`` — spacer→valid latency at the outputs (the paper's
  "latency"), which varies per operand thanks to early propagation;
* ``t_v_to_s`` — output reset time after the inputs return to spacer;
* ``t_internal_reset`` — time until *every* net has reset (what the grace
  period must cover);
* the decoded output values, so functional correctness can be asserted.

:class:`SynchronousEnvironment` drives the single-rail baseline: it toggles
the clock with the period obtained from static timing analysis, presents one
operand per cycle and samples the registered outputs after each edge.

Both environments emit one tracing span per top-level engine run and none
per event: ``event.infer`` per dual-rail operand, ``event.settle`` per
dual-rail :meth:`~DualRailEnvironment.reset` and per synchronous operand
run, each carrying the ``events`` it committed and the ``operands`` it
covered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.circuits.gates import LogicValue
from repro.core.dual_rail import (
    DualRailCircuit,
    DualRailSignal,
    decode_pair,
    encode_bit,
    is_spacer,
    is_valid_codeword,
)
from repro.core.one_of_n import decode_one_of_n, is_spacer_one_of_n, is_valid_one_of_n
from repro.obs import trace as _trace

from .monitors import MonotonicityMonitor, ProtocolViolation
from .simulator import GateLevelSimulator


@dataclass
class DualRailInferenceResult:
    """Measurements of one dual-rail operand (one inference)."""

    operand: Dict[str, int]
    outputs: Dict[str, Optional[int]]
    one_of_n_outputs: Dict[str, Optional[int]]
    t_start: float
    t_s_to_v: float
    t_v_to_s: float
    t_internal_reset: float
    done_rise: Optional[float] = None
    done_fall: Optional[float] = None

    @property
    def latency(self) -> float:
        """Spacer→valid latency (the paper's per-inference latency)."""
        return self.t_s_to_v

    @property
    def cycle_time(self) -> float:
        """Minimum time before the next valid may be applied.

        The throughput period of the dual-rail design is the sum of the
        forward latency and the reset time (Section IV-D).
        """
        return self.t_s_to_v + self.t_v_to_s


@dataclass
class SynchronousCycleResult:
    """Measurements of one clock cycle of the single-rail baseline."""

    operand: Dict[str, int]
    outputs: Dict[str, LogicValue]
    cycle_index: int
    latency: float


class DualRailEnvironment:
    """Protocol driver and measurement harness for a :class:`DualRailCircuit`."""

    def __init__(
        self,
        circuit: DualRailCircuit,
        simulator: GateLevelSimulator,
        grace_period: float = 0.0,
        monotonicity_monitor: Optional[MonotonicityMonitor] = None,
        strict: bool = True,
    ) -> None:
        self.circuit = circuit
        self.sim = simulator
        self.grace_period = float(grace_period)
        self.monitor = monotonicity_monitor
        self.strict = strict
        self._initialised = False

    # ----------------------------------------------------------- low level
    def _input_assignments(self, values: Optional[Dict[str, int]]) -> Dict[str, int]:
        """Rail assignments for a full set of input codewords (or spacer)."""
        assignments: Dict[str, int] = {}
        for sig in self.circuit.inputs:
            if values is None:
                s = sig.polarity.spacer_rail_value
                assignments[sig.pos] = s
                assignments[sig.neg] = s
            else:
                if sig.name not in values:
                    raise KeyError(f"operand is missing a value for input {sig.name!r}")
                pos, neg = encode_bit(values[sig.name])
                assignments[sig.pos] = pos
                assignments[sig.neg] = neg
        return assignments

    def _outputs_valid_time(self, after: float) -> float:
        """Latest time at which the last output port became valid."""
        worst = after
        for sig in self.circuit.outputs:
            t = self._pair_event_time(sig, after, want_valid=True)
            worst = max(worst, t)
        for sig in self.circuit.one_of_n_outputs:
            t = self._one_of_n_event_time(sig, after, want_valid=True)
            worst = max(worst, t)
        return worst

    def _outputs_reset_time(self, after: float) -> float:
        """Latest time at which the last output port returned to spacer."""
        worst = after
        for sig in self.circuit.outputs:
            t = self._pair_event_time(sig, after, want_valid=False)
            worst = max(worst, t)
        for sig in self.circuit.one_of_n_outputs:
            t = self._one_of_n_event_time(sig, after, want_valid=False)
            worst = max(worst, t)
        return worst

    def _pair_event_time(self, sig: DualRailSignal, after: float, want_valid: bool) -> float:
        pos_now = self.sim.value(sig.pos)
        neg_now = self.sim.value(sig.neg)
        ok_now = (
            is_valid_codeword(pos_now, neg_now)
            if want_valid
            else is_spacer(pos_now, neg_now, sig.polarity)
        )
        if not ok_now:
            state = "valid" if want_valid else "spacer"
            raise ProtocolViolation(
                f"output {sig.name!r} never reached the {state} state "
                f"(rails are ({pos_now}, {neg_now}))"
            )
        times = []
        for rail in sig.rails():
            trace = self.sim.waveform.trace(rail)
            t = trace.first_time_matching(lambda v, rail=rail: v == self.sim.value(rail), after)
            if t is not None:
                times.append(t)
        return max(times) if times else after

    def _one_of_n_event_time(self, sig, after: float, want_valid: bool) -> float:
        values = [self.sim.value(r) for r in sig.rails]
        ok_now = (
            is_valid_one_of_n(values, sig.polarity)
            if want_valid
            else is_spacer_one_of_n(values, sig.polarity)
        )
        if not ok_now:
            state = "valid" if want_valid else "spacer"
            raise ProtocolViolation(
                f"1-of-n output {sig.name!r} never reached the {state} state (rails {values})"
            )
        times = []
        for rail in sig.rails:
            trace = self.sim.waveform.trace(rail)
            t = trace.first_time_matching(lambda v, rail=rail: v == self.sim.value(rail), after)
            if t is not None:
                times.append(t)
        return max(times) if times else after

    def _internal_reset_time(self, after: float) -> float:
        """Time of the last transition anywhere in the circuit after *after*."""
        latest = after
        for trace in self.sim.waveform.traces.values():
            for t in reversed(trace.times):
                if t <= after:
                    break
                latest = max(latest, t)
                break
        return latest

    # ------------------------------------------------------------ protocol
    def reset(self) -> None:
        """Drive every input to spacer and let the circuit settle."""
        events_before = self.sim.events_processed
        with _trace.span("event.settle", operands=0) as span:
            if self.monitor is not None:
                self.monitor.begin_phase("reset")
            self.sim.set_inputs(self._input_assignments(None))
            self.sim.settle()
            self._initialised = True
            span.add(events=self.sim.events_processed - events_before)

    def infer(self, operand: Dict[str, int]) -> DualRailInferenceResult:
        """Run one full spacer→valid→spacer cycle for *operand*.

        The circuit must currently be in the spacer state (call
        :meth:`reset` once before the first operand).
        """
        if not self._initialised:
            self.reset()
        events_before = self.sim.events_processed
        with _trace.span("event.infer", operands=1) as span:
            result = self._cycle(operand)
            span.add(events=self.sim.events_processed - events_before)
        return result

    def _cycle(self, operand: Dict[str, int]) -> DualRailInferenceResult:
        """The spacer→valid→spacer cycle behind :meth:`infer`."""
        t_start = self.sim.time
        if self.monitor is not None:
            self.monitor.begin_phase(f"s_to_v@{t_start:.0f}")
        self.sim.set_inputs(self._input_assignments(operand))
        self.sim.settle()

        t_valid = self._outputs_valid_time(t_start)
        outputs: Dict[str, Optional[int]] = {}
        for sig in self.circuit.outputs:
            outputs[sig.name] = decode_pair(
                self.sim.value(sig.pos), self.sim.value(sig.neg), sig.polarity
            )
        one_of_n: Dict[str, Optional[int]] = {}
        for sig in self.circuit.one_of_n_outputs:
            one_of_n[sig.name] = decode_one_of_n(
                [self.sim.value(r) for r in sig.rails], sig.polarity
            )

        done_rise = None
        if self.circuit.done_net is not None:
            done_rise = self.sim.waveform.first_transition_after(
                self.circuit.done_net, t_start, lambda v: v == 1
            )
            if self.strict and done_rise is None:
                raise ProtocolViolation("completion (done) never asserted after valid inputs")

        # Requirement 6: inputs return to spacer only after S->V on the outputs.
        t_spacer_applied = self.sim.time
        if self.monitor is not None:
            self.monitor.begin_phase(f"v_to_s@{t_spacer_applied:.0f}")
        self.sim.set_inputs(self._input_assignments(None))
        self.sim.settle()
        t_outputs_reset = self._outputs_reset_time(t_spacer_applied)
        t_internal_reset = self._internal_reset_time(t_spacer_applied)

        done_fall = None
        if self.circuit.done_net is not None:
            done_fall = self.sim.waveform.first_transition_after(
                self.circuit.done_net, t_spacer_applied, lambda v: v == 0
            )
            if self.strict and done_fall is None:
                raise ProtocolViolation(
                    "completion (done) never de-asserted after spacer inputs"
                )

        # Requirement 4: wait the grace period before the next valid operand
        # so every internal net has reset even without internal CD.
        ready_at = t_spacer_applied + max(
            self.grace_period, t_outputs_reset - t_spacer_applied
        )
        if done_fall is not None:
            ready_at = max(ready_at, done_fall)
        if self.sim.time < ready_at:
            self.sim.run(until=ready_at)
            self.sim.time = max(self.sim.time, ready_at)

        return DualRailInferenceResult(
            operand=dict(operand),
            outputs=outputs,
            one_of_n_outputs=one_of_n,
            t_start=t_start,
            t_s_to_v=t_valid - t_start,
            t_v_to_s=t_outputs_reset - t_spacer_applied,
            t_internal_reset=t_internal_reset - t_spacer_applied,
            done_rise=done_rise,
            done_fall=done_fall,
        )

    def run_sequence(self, operands: Sequence[Dict[str, int]]) -> List[DualRailInferenceResult]:
        """Run a sequence of operands back to back, honouring the protocol."""
        results = []
        for operand in operands:
            results.append(self.infer(operand))
        return results


class SynchronousEnvironment:
    """Clock/stimulus driver for the registered single-rail baseline."""

    def __init__(
        self,
        simulator: GateLevelSimulator,
        clock_net: str,
        input_nets: Dict[str, str],
        output_nets: Dict[str, str],
        clock_period: float,
    ) -> None:
        self.sim = simulator
        self.clock_net = clock_net
        self.input_nets = dict(input_nets)
        self.output_nets = dict(output_nets)
        self.clock_period = float(clock_period)
        self.cycle_index = 0
        self.sim.set_input(clock_net, 0)
        self.sim.settle()

    def apply_operand(self, operand: Dict[str, int]) -> None:
        """Present operand values on the (registered) primary inputs."""
        assignments = {}
        for name, value in operand.items():
            if name not in self.input_nets:
                raise KeyError(f"unknown single-rail input {name!r}")
            assignments[self.input_nets[name]] = int(bool(value))
        self.sim.set_inputs(assignments)
        self.sim.settle()

    def clock_edge(self) -> None:
        """Issue one full clock cycle (rising edge, then falling edge)."""
        half = self.clock_period / 2.0
        rise_at = self.sim.time
        self.sim.set_input(self.clock_net, 1, at=rise_at)
        self.sim.run(until=rise_at + half)
        self.sim.set_input(self.clock_net, 0, at=rise_at + half)
        self.sim.run(until=rise_at + self.clock_period)
        self.sim.time = rise_at + self.clock_period
        self.cycle_index += 1

    def read_outputs(self) -> Dict[str, LogicValue]:
        """Sample the registered primary outputs."""
        return {name: self.sim.value(net) for name, net in self.output_nets.items()}

    def run_operand(self, operand: Dict[str, int]) -> SynchronousCycleResult:
        """Present *operand*, run the two clock edges needed to register the result.

        With input and output registers an operand is captured on one rising
        edge and its result appears at the output registers on the next, so
        the per-operand latency equals one clock period once the pipeline is
        primed (the paper's "the clock period defines the latency").
        """
        events_before = self.sim.events_processed
        with _trace.span("event.settle", operands=1) as span:
            self.apply_operand(operand)
            self.clock_edge()   # capture operand into the input registers
            self.clock_edge()   # capture the result into the output registers
            span.add(events=self.sim.events_processed - events_before)
        return SynchronousCycleResult(
            operand=dict(operand),
            outputs=self.read_outputs(),
            cycle_index=self.cycle_index,
            latency=self.clock_period,
        )

    def run_pipelined(self, operands: Sequence[Dict[str, int]]) -> List[Dict[str, LogicValue]]:
        """Stream operands one per cycle and collect the (delayed) outputs."""
        outputs: List[Dict[str, LogicValue]] = []
        events_before = self.sim.events_processed
        with _trace.span("event.settle", operands=len(operands)) as span:
            for operand in operands:
                self.apply_operand(operand)
                self.clock_edge()
                outputs.append(self.read_outputs())
            # Flush the final result through the output register stage.
            self.clock_edge()
            outputs.append(self.read_outputs())
            span.add(events=self.sim.events_processed - events_before)
        return outputs[1:]
