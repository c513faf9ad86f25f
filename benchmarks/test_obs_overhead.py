"""Benchmark: tracing must be (near) zero-cost when disabled.

Every hot stage of the simulation and serving stack carries
``repro.obs.trace.span`` calls.  With the default tracer disabled those
calls reduce to one attribute read, a branch, and the shared no-op span.
This benchmark prices that cost directly instead of timing two near-equal
runs against each other (a ~5 ms pass compared best-of-5 against a 3%
bound read scheduler noise as overhead):

* ``obs_overhead_pct`` — the disabled span calls of one bitpack
  ``run_arrays`` pass as a percentage of that pass's time: the span calls
  are counted exactly with a counting stand-in for the tracer's ``span``,
  multiplied by the cost of one disabled span call (timed over
  :data:`SPAN_PROBE_CALLS` calls), and divided by the best time of the pass
  with the real, disabled tracer;
* ``obs_event_overhead_pct`` — the same estimator over the ``event.*``
  spans of one event-timed ``run_table1`` library.

The <3% acceptance bound is asserted directly at the bench-smoke sample
budget and additionally tracked through ``benchmarks/baseline.json`` so a
future accidental de-optimisation (e.g. building attr dicts eagerly on the
disabled path) fails CI with a number attached.
"""

from __future__ import annotations

import os
import time

from repro.analysis import random_workload, run_table1, workload_input_planes
from repro.datapath.datapath import DualRailDatapath
from repro.obs import trace
from repro.sim.backends import BitpackBackend

#: Operand count of the overhead measurement (matches the bitpack bench).
OVERHEAD_SAMPLES = int(os.environ.get("BENCH_BITPACK_SAMPLES", "10000"))
#: Acceptance bound: disabled-tracing overhead on bitpack throughput.
MAX_OVERHEAD_PCT = 3.0
#: Repetitions per timed pass; the best time is kept, which filters
#: scheduler noise far better than single-shot timing.
ROUNDS = int(os.environ.get("BENCH_OBS_ROUNDS", "5"))
#: Disabled span calls timed to price one call.
SPAN_PROBE_CALLS = 200_000


def _best_run_seconds(backend, planes, rounds: int) -> float:
    """Minimum wall-clock of *rounds* ``run_arrays`` passes."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        backend.run_arrays(planes)
        best = min(best, time.perf_counter() - start)
    return best


def _disabled_span_seconds() -> float:
    """Best per-call time of a disabled ``trace.span`` used as call sites do."""
    assert not trace.enabled()
    span = trace.span
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(SPAN_PROBE_CALLS):
            with span("obs.probe", lanes=64) as probe:
                probe.add(samples=1)
        best = min(best, (time.perf_counter() - start) / SPAN_PROBE_CALLS)
    return best


def _count_span_calls(monkeypatch, run, prefix: str = "") -> int:
    """Exact number of span calls named ``prefix*`` that one *run()* makes."""
    tracer = trace.default_tracer()
    real_span = tracer.span
    calls = []

    def counting_span(name, **attrs):
        if name.startswith(prefix):
            calls.append(name)
        return real_span(name, **attrs)

    with monkeypatch.context() as patch:
        patch.setattr(tracer, "span", counting_span)
        run()
    return len(calls)


def _overhead_pct(span_calls: int, run_s: float) -> float:
    """Disabled-span cost of *span_calls* calls as a percentage of *run_s*."""
    return 100.0 * span_calls * _disabled_span_seconds() / run_s


def test_disabled_tracing_overhead_is_negligible(umc, bench_records, monkeypatch):
    """Span calls on the bitpack hot path cost <3% with tracing off."""
    workload = random_workload(
        num_features=4, clauses_per_polarity=8,
        num_operands=OVERHEAD_SAMPLES, seed=5,
    )
    datapath = DualRailDatapath(workload.config)
    backend = BitpackBackend(datapath.circuit.netlist, umc)
    planes = workload_input_planes(datapath.circuit, datapath, workload)
    backend.run_arrays(planes)  # warm the levelized program + caches

    was_enabled = trace.enabled()
    trace.disable()
    try:
        span_calls = _count_span_calls(monkeypatch, lambda: backend.run_arrays(planes))
        run_s = _best_run_seconds(backend, planes, ROUNDS)
        overhead_pct = _overhead_pct(span_calls, run_s)
    finally:
        trace.reset()
        if was_enabled:
            trace.enable()

    rate = OVERHEAD_SAMPLES / run_s
    print(
        f"\nObs overhead: {span_calls} span calls per pass, pass={run_s * 1e3:.2f} ms "
        f"({rate:,.0f} samples/s) -> {overhead_pct:.3f}% overhead"
    )
    bench_records["obs_overhead_pct"] = overhead_pct
    assert span_calls > 0

    # Only gate at a meaningful sample budget; at tiny smoke budgets the
    # pass is dominated by per-call fixed costs.
    if OVERHEAD_SAMPLES >= 10000:
        assert overhead_pct < MAX_OVERHEAD_PCT


def test_disabled_event_spans_are_negligible(umc, table1_workload, bench_records, monkeypatch):
    """The ``event.*`` spans of an event-timed Table I library cost <3% off."""
    was_enabled = trace.enabled()
    trace.disable()
    try:
        def table1():
            run_table1(table1_workload, [umc], timing_backend="event")

        span_calls = _count_span_calls(monkeypatch, table1, prefix="event.")
        start = time.perf_counter()
        table1()
        run_s = time.perf_counter() - start
        overhead_pct = _overhead_pct(span_calls, run_s)
    finally:
        trace.reset()
        if was_enabled:
            trace.enable()

    print(
        f"\nEvent span overhead: {span_calls} event.* span calls, "
        f"run_table1={run_s:.2f} s -> {overhead_pct:.5f}% overhead"
    )
    bench_records["obs_event_overhead_pct"] = overhead_pct
    # One reset and one span per dual-rail operand, one per clocked operand.
    assert span_calls == 1 + 2 * len(table1_workload.feature_vectors)
    assert overhead_pct < MAX_OVERHEAD_PCT


def test_enabled_tracing_records_without_wrecking_throughput(umc, bench_records):
    """Tracing *on* stays within 2x — spans are cheap even when recording."""
    workload = random_workload(
        num_features=4, clauses_per_polarity=8,
        num_operands=OVERHEAD_SAMPLES, seed=5,
    )
    datapath = DualRailDatapath(workload.config)
    backend = BitpackBackend(datapath.circuit.netlist, umc)
    planes = workload_input_planes(datapath.circuit, datapath, workload)
    backend.run_arrays(planes)  # warm-up

    trace.disable()
    off_s = _best_run_seconds(backend, planes, ROUNDS)
    trace.reset()
    trace.enable()
    try:
        on_s = _best_run_seconds(backend, planes, ROUNDS)
        spans = len(trace.records())
    finally:
        trace.reset()
        trace.disable()

    assert spans >= 2 * ROUNDS  # at least pack + levels per traced pass
    slowdown = on_s / off_s
    bench_records["obs_enabled_slowdown_x"] = slowdown
    print(f"\nObs enabled slowdown: {slowdown:.3f}x over {spans} spans")
    assert slowdown < 2.0
