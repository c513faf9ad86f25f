"""Workload ``serve_open``: the micro-batching gateway under open and closed load.

The served model is the one ``examples/serve_demo.py`` serves by default (a
random-composition 4-feature, 8-clause datapath on the bit-packed backend)
behind an in-process ``MicroBatchGateway`` with the default config.  One
repetition runs three phases on one asyncio loop, no threads on the load
side:

* ``low``  — open-loop Poisson arrivals at 1,000 req/s;
* ``high`` — open-loop Poisson arrivals at 2,000 req/s;
* ``closed`` — 64 virtual clients, each with one request outstanding.

The load generator is the benchmark's own: it calls
``MicroBatchGateway.submit`` directly, times every open-loop request from
its *scheduled* send time (so a stall is charged to every request it
delays), records how late the generator itself sent, and counts a
rejected request as a failure that misses every latency limit.  The seed
draws the request features and the arrival schedule.

Set-up is building the model spec and starting the gateway (program
compile, kernel build, worker thread) plus one warm-up request; its time
is in reference-host seconds (``common.host_scale``).  The cycle's wall
time is not scaled: two thirds of it is the fixed open-loop schedule.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from common import (
    Checker,
    calibration_s,
    emit,
    format_ledger,
    host_scale,
    layer_metrics,
    ledger,
    load_reference,
    median,
    median_metrics,
    merge_tables,
    peak_rss_mb,
    percentile,
    with_unentered_layers,
)

NAME = "serve_open"
MODEL_SEED = 2021
LOW_RPS = 1000.0
HIGH_RPS = 2000.0
LIMIT_MS = 20.0
CLOSED_CLIENTS = 64
SETUPS = 15
#: Distinct request feature vectors drawn per seed.
POOL = 4096
#: Latency booked for a rejected request: it misses every limit.
REJECTED_MS = 1e9


@dataclass
class Sizes:
    """Workload size; the self-test shrinks it."""

    phase_s: float = 2.0
    closed_requests: int = 16384
    setups: int = SETUPS


@dataclass
class Phase:
    """Per-request log of one load phase."""

    name: str
    scheduled: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)  # nan = rejected
    index: List[int] = field(default_factory=list)
    verdict: List[Optional[str]] = field(default_factory=list)
    decision: List[Optional[int]] = field(default_factory=list)
    duration_s: float = 0.0

    def latency_ms(self) -> np.ndarray:
        """Latency from scheduled send; a rejected request reads :data:`REJECTED_MS`."""
        done = np.asarray(self.done)
        lat = (done - np.asarray(self.scheduled)) * 1e3
        return np.where(np.isnan(done), REJECTED_MS, lat)


@dataclass
class Cycle:
    """What an untraced repetition keeps: latencies and closed-loop totals."""

    low_ms: np.ndarray
    high_ms: np.ndarray
    high_s: float
    closed_requests: int
    closed_s: float

    @classmethod
    def of(cls, phases: List[Phase]) -> "Cycle":
        """Condense one repetition's low, high and closed phases."""
        low, high, closed = phases
        return cls(low.latency_ms(), high.latency_ms(), high.duration_s,
                   len(closed.index), closed.duration_s)


def served_workload():
    """The model ``examples/serve_demo.py`` serves by default."""
    from repro.analysis import random_workload

    return random_workload(num_features=4, clauses_per_polarity=8, num_operands=1,
                           seed=MODEL_SEED)


def request_pool(seed: int) -> np.ndarray:
    """The seeded request features."""
    rng = np.random.default_rng(seed)
    return (rng.random((POOL, 4)) < 0.5).astype(np.uint8)


def expected_replies(pool: np.ndarray, reference: Dict[str, Any],
                     checker: Checker) -> Dict[str, np.ndarray]:
    """``batch_functional_pass`` over the pool, checked against the reference."""
    from dataclasses import replace

    from repro.analysis import batch_functional_pass, resolve_library
    from repro.datapath.datapath import DualRailDatapath

    workload = served_workload()
    datapath = DualRailDatapath(workload.config)
    sweep = batch_functional_pass(
        datapath, datapath.circuit, replace(workload, feature_vectors=pool),
        resolve_library(None), with_activity=False, backend="batch",
    )
    verdicts = np.asarray(sweep.verdicts)
    decisions = np.asarray(sweep.decisions)
    pattern = (pool.astype(np.int64) * (1 << np.arange(pool.shape[1]))).sum(axis=1)
    ok = (verdicts == np.asarray(reference["verdict"])[pattern]) & (
        decisions == np.asarray(reference["decision"])[pattern]
    )
    checker.count(int(ok.size), int((~ok).sum()))
    if not ok.all():
        checker.note(f"batch_functional_pass disagrees with the reference on "
                     f"{int((~ok).sum())} of {ok.size} request features")
    return {"verdict": verdicts, "decision": decisions}


async def start_gateway():
    """Set-up: model spec, gateway start, one warm-up request."""
    from repro.serve import GatewayConfig, MicroBatchGateway, ModelSpec

    spec = ModelSpec.from_workload(served_workload(), backend="bitpack")
    gateway = MicroBatchGateway(spec, GatewayConfig())
    await gateway.start()
    await gateway.submit(np.zeros(4, dtype=np.uint8))
    return gateway


async def _request(gateway, features: np.ndarray, phase: Phase, slot: int) -> None:
    from repro.serve import GatewayOverloaded

    phase.sent[slot] = time.perf_counter()
    try:
        reply = await gateway.submit(features)
    except GatewayOverloaded:
        return
    phase.done[slot] = time.perf_counter()
    phase.verdict[slot] = reply.verdict
    phase.decision[slot] = reply.decision


async def open_phase(gateway, name: str, rate: float, duration: float,
                     rng: np.random.Generator, pool: np.ndarray) -> Phase:
    """Poisson arrivals at *rate* for *duration*; every request its own task."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < duration]
    count = len(offsets)
    phase = Phase(name, index=rng.integers(0, len(pool), size=count).tolist(),
                  sent=[np.nan] * count, done=[np.nan] * count,
                  verdict=[None] * count, decision=[None] * count)
    start = time.perf_counter() + 0.001
    phase.scheduled = (start + offsets).tolist()
    tasks = []
    for slot, due in enumerate(phase.scheduled):
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(
            _request(gateway, pool[phase.index[slot]], phase, slot)))
    await asyncio.gather(*tasks)
    phase.duration_s = duration
    return phase


async def closed_phase(gateway, requests: int, rng: np.random.Generator,
                       pool: np.ndarray) -> Phase:
    """*requests* requests from :data:`CLOSED_CLIENTS` one-at-a-time clients."""
    phase = Phase("closed", index=rng.integers(0, len(pool), size=requests).tolist(),
                  sent=[np.nan] * requests, done=[np.nan] * requests,
                  verdict=[None] * requests, decision=[None] * requests)
    phase.scheduled = phase.sent  # a closed-loop request is due when sent
    slots = iter(range(requests))

    async def client() -> None:
        for slot in slots:
            await _request(gateway, pool[phase.index[slot]], phase, slot)

    start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(CLOSED_CLIENTS)))
    phase.duration_s = time.perf_counter() - start
    return phase


async def load_cycle(gateway, seed: int, rep: int, pool: np.ndarray,
                     sizes: Sizes) -> List[Phase]:
    """One repetition: the low, high and closed phases."""
    rng = np.random.default_rng([seed, rep])
    return [
        await open_phase(gateway, "low", LOW_RPS, sizes.phase_s, rng, pool),
        await open_phase(gateway, "high", HIGH_RPS, sizes.phase_s, rng, pool),
        await closed_phase(gateway, sizes.closed_requests, rng, pool),
    ]


def check(phases: List[Phase], expected: Dict[str, np.ndarray], checker: Checker) -> None:
    """Every reply against the functional pass; rejections are failures."""
    for phase in phases:
        index = np.asarray(phase.index)
        answered = ~np.isnan(np.asarray(phase.done))
        got_v = np.asarray(phase.verdict, dtype=object)
        got_d = np.asarray(phase.decision, dtype=object)
        ok = (got_v == expected["verdict"][index]) & (got_d == expected["decision"][index])
        mismatched = int((answered & ~ok).sum())
        checker.count(len(index), mismatched, refused=int((~answered).sum()))
        if mismatched:
            checker.note(f"{phase.name}: {mismatched} replies differ from "
                         f"batch_functional_pass")


def cycle_summary(cycles: List[Cycle]) -> Dict[str, float]:
    """Pooled latency percentiles, goodput and capacity over repetitions."""
    low = np.concatenate([c.low_ms for c in cycles])
    high = np.concatenate([c.high_ms for c in cycles])
    return {
        "serve.p50_ms.low": percentile(low, 50),
        "serve.p99_ms.low": percentile(low, 99),
        "serve.p50_ms.high": percentile(high, 50),
        "serve.p99_ms.high": percentile(high, 99),
        "serve.goodput_rps.high": float((high <= LIMIT_MS).sum() / sum(c.high_s for c in cycles)),
        "serve.capacity_rps": (sum(c.closed_requests for c in cycles)
                               / sum(c.closed_s for c in cycles)),
    }


def request_ledger(records: List[Any], phases: List[Phase], after: float
                   ) -> Dict[str, Any]:
    """Split open-loop request latency along the gateway's spans.

    Requests enter the gateway queue in send order and the single batching
    loop takes them first-in first-out, so the accepted requests, sorted by
    send time, fill the dispatched batches (sorted by flush start) in
    order, each batch taking as many as its ``lanes``.  Per request that
    yields: generator lag (scheduled → sent), batching (sent → flush end),
    service (its batch's ``worker.classify``), dispatch handoff (rest of
    ``gateway.dispatch``), completion (``gateway.complete``) and the gaps
    between those spans and after completion, which no span covers.
    """
    def spans(name: str) -> List[Any]:
        return sorted((r for r in records if r.name == name and r.start_us / 1e6 >= after),
                      key=lambda r: r.start_us)

    flushes, dispatches, completes = spans("gateway.flush"), spans("gateway.dispatch"), \
        spans("gateway.complete")
    classify = spans("worker.classify")
    batches = []
    for flush, dispatch, complete, work in zip(flushes, dispatches, completes, classify):
        batches.append((int(flush.attrs.get("lanes", 0)), flush, dispatch, complete, work))
    requests = []
    for phase in phases:
        for slot, done in enumerate(phase.done):
            if not np.isnan(done):
                requests.append((phase.sent[slot], phase.scheduled[slot], done,
                                 phase.name != "closed"))
    requests.sort()
    parts: Dict[str, List[float]] = {k: [] for k in (
        "gen_lag", "batching", "service", "handoff", "completion", "gaps", "latency")}
    cursor = 0
    for lanes, flush, dispatch, complete, work in batches:
        flush_end = (flush.start_us + flush.duration_us) / 1e6
        dispatch_start = dispatch.start_us / 1e6
        dispatch_end = (dispatch.start_us + dispatch.duration_us) / 1e6
        complete_start = complete.start_us / 1e6
        complete_end = (complete.start_us + complete.duration_us) / 1e6
        service = work.duration_us / 1e6
        for sent, scheduled, done, open_loop in requests[cursor: cursor + lanes]:
            if not open_loop:
                continue
            parts["gen_lag"].append(sent - scheduled)
            parts["batching"].append(flush_end - sent)
            parts["service"].append(service)
            parts["handoff"].append(dispatch_end - dispatch_start - service)
            parts["completion"].append(complete_end - complete_start)
            parts["gaps"].append((dispatch_start - flush_end) + (complete_start - dispatch_end)
                                 + (done - complete_end))
            parts["latency"].append(done - scheduled)
        cursor += lanes
    return {k: float(np.mean(v)) * 1e3 if v else 0.0 for k, v in parts.items()}


async def measure(seed: int, seconds: float, traced: bool, sizes: Sizes,
                  reference: Dict[str, Any]) -> int:
    """Set up, repeat load cycles for *seconds*, check replies, report."""
    from repro.obs import trace

    checker = Checker()
    pool = request_pool(seed)
    expected = expected_replies(pool, reference, checker)
    setup_times = []
    gateway = None
    for _ in range(sizes.setups):
        if gateway is not None:
            await gateway.stop()
        before = calibration_s()
        t0 = time.perf_counter()
        gateway = await start_gateway()
        wall = time.perf_counter() - t0
        setup_times.append(wall * host_scale(before, calibration_s()))

    plain: List[Cycle] = []
    walls: List[float] = []
    traced_reps: List[Dict[str, float]] = []
    ledgers: List[Dict[str, float]] = []
    tables: List[Dict[str, Dict[str, float]]] = []
    walls_traced: List[float] = []
    start = time.perf_counter()
    durations: List[float] = []
    rep = 0
    try:
        while True:
            t0 = time.perf_counter()
            if traced and rep % 2 == 1:
                await gateway.stop()
                trace.reset()
                trace.enable()
                try:
                    with trace.span("bench.rep"):
                        with trace.span("bench.setup"):
                            gateway = await start_gateway()
                        before = gateway.stats.snapshot()
                        after = time.perf_counter()
                        phases = await load_cycle(gateway, seed, rep, pool, sizes)
                        window = gateway.stats.delta(before)
                finally:
                    trace.disable()
                records = trace.drain()
                wall = next(r for r in records if r.name == "bench.rep").duration_us / 1e6
                table = ledger(records)
                # Gateway spans only wait (their self time overlaps across
                # concurrent requests): request time is split below instead.
                tables.append({k: v for k, v in table.items() if k != "unattributed"})
                walls_traced.append(wall)
                values = layer_metrics(records, table, wall)
                split = request_ledger(records, phases, after)
                ledgers.append(split)
                closed = phases[2]
                values.update({
                    "serve.wait_ms": split["latency"] - split["service"],
                    "serve.service_ms": split["service"],
                    "serve.batch_fill": window.batching_efficiency,
                    "serve.batches": window.batches,
                    "serve.rejected": window.rejected,
                    "serve.gen_lag_ms": percentile(
                        [(s - d) * 1e3 for p in phases[:2]
                         for s, d in zip(p.sent, p.scheduled)], 99),
                    "unattributed_share": (split["gaps"] / split["latency"]
                                           if split["latency"] else 0.0),
                    "closed_s_per_request": closed.duration_s / len(closed.index),
                })
                traced_reps.append(values)
            else:
                phases = await load_cycle(gateway, seed, rep, pool, sizes)
                plain.append(Cycle.of(phases))
                walls.append(time.perf_counter() - t0)
            check(phases, expected, checker)
            durations.append(time.perf_counter() - t0)
            rep += 1
            elapsed = time.perf_counter() - start
            enough = rep >= (2 if traced else 1)
            if enough and elapsed + median(durations) > seconds:
                    break
    finally:
        await gateway.stop()

    report = [f"  repetitions {len(plain)} untraced, {len(traced_reps)} traced"]
    summary = cycle_summary(plain)
    report.append("  " + ", ".join(f"{k}={v:.4g}" for k, v in summary.items()))
    if not traced:
        values = {
            "wall_s": median(walls),
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": summary["serve.goodput_rps.high"],
        }
        report.append("  closed-loop req/s per repetition: "
                      + ", ".join(f"{c.closed_requests / c.closed_s:.0f}" for c in plain))
        return emit(NAME, False, checker, values, report)

    values = median_metrics(traced_reps)
    values.update(summary)
    plain_closed = median([c.closed_s / c.closed_requests for c in plain])
    values["obs.trace_overhead_pct"] = (
        values.pop("closed_s_per_request") / plain_closed - 1.0) * 100.0
    report.append("  layer work in a traced repetition (set-up included):")
    report.extend(format_ledger(merge_tables(tables), median(walls_traced)))
    split = median_metrics(ledgers)
    report.append("  open-loop request latency, mean ms per request:")
    for key in ("gen_lag", "batching", "service", "handoff", "completion", "gaps", "latency"):
        label = "gaps (unattributed)" if key == "gaps" else key
        report.append(f"    {label:<22} {split[key]:>9.4f}")
    return emit(NAME, True, checker, with_unentered_layers(values), report)


def run(seed: int, seconds: float, traced: bool, sizes: Sizes = Sizes(),
        reference: Dict[str, Any] = None) -> int:
    """Measure the workload; print the report and result line; exit code.

    The process is pinned to one CPU before the gateway starts its worker
    thread: a serving replica per core.  Left to float over both cores of
    a 2-vCPU host, the event loop and the worker thread hand the
    interpreter lock across cores, and closed-loop capacity varied from
    4.6k to 7.3k req/s between consecutive runs (9.2k to 9.8k pinned).
    """
    reference = load_reference(NAME) if reference is None else reference
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return asyncio.run(measure(seed, seconds, traced, sizes, reference))
