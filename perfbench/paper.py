"""Workload ``paper_repro``: the paper's artefacts, end to end.

One repetition runs the three paper phases on the default trained workload
(noisy-XOR Tsetlin machine, 4 features, 8 clauses per polarity):

1. ``run_table1`` on both libraries with event timing (the oracle path);
2. ``run_figure3`` over the 13 ``FIGURE3_VOLTAGES`` with event timing;
3. ``run_latency_distribution`` over a seeded stream of operands with the
   bit-packed timing engine, in large chunks.

Set-up is training the workload and building the libraries.  Table I and
Figure 3 run on the fixed paper workload; the seed draws the stream.
Times are reference-host seconds (``common.host_timed``), summed over the
repetition's calls.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Any, Dict, List

import numpy as np

from common import (
    Checker,
    RTOL,
    emit,
    format_ledger,
    host_timed,
    layer_metrics,
    ledger,
    load_reference,
    median,
    median_metrics,
    merge_tables,
    peak_rss_mb,
    repeat,
    timed_setup,
    with_unentered_layers,
)

NAME = "paper_repro"
STREAM_OPERANDS = 8192
STREAM_CHUNK = 4096
FIGURE3_OPERANDS = 12
#: Operands of the stream re-timed by the event oracle after the run.
ORACLE_PREFIX = 32
SETUPS = 5


@dataclass
class Sizes:
    """Workload size; the self-test shrinks it."""

    stream_operands: int = STREAM_OPERANDS
    stream_chunk: int = STREAM_CHUNK
    voltages: Any = None  # None = every FIGURE3_VOLTAGES point
    oracle_prefix: int = ORACLE_PREFIX
    setups: int = SETUPS


@dataclass
class Context:
    """What set-up produces and every repetition reuses."""

    workload: Any
    libraries: List[Any]
    stream_library: Any


def stream_features(seed: int, count: int) -> np.ndarray:
    """The seeded operand stream: uniform 4-bit feature vectors."""
    rng = np.random.default_rng(seed)
    return (rng.random((count, 4)) < 0.5).astype(np.int8)


def pattern_index(features: np.ndarray) -> np.ndarray:
    """Index of each 4-bit feature vector into the reference pattern table."""
    weights = 1 << np.arange(features.shape[1])
    return (np.asarray(features, dtype=np.int64) * weights).sum(axis=1)


def setup() -> Context:
    """Train the paper workload and build the libraries."""
    from repro.analysis import default_workload, resolve_libraries, resolve_library
    from repro.obs import trace

    with trace.span("bench.train"):
        workload = default_workload()
    return Context(workload, resolve_libraries(None), resolve_library(None))


def body(ctx: Context, features: np.ndarray, sizes: Sizes,
         calibrated: bool) -> Dict[str, Any]:
    """One repetition: Table I, Figure 3, the timed stream.

    The work is made as one call per work unit: a Table I library, a
    Figure 3 supply, a stream chunk.  The entry points document these
    units as independent, so the split changes no output.  With
    *calibrated*, every call is timed by :func:`common.host_timed`: the
    repetition's ``norm_s`` and the stream's ``chunk_rates`` (operands per
    second of each chunk) are in reference-host seconds; a traced
    repetition runs no calibration loop, so they are wall times.
    """
    from repro.analysis.experiments import (
        run_figure3,
        run_latency_distribution,
        run_table1,
    )
    from repro.sim.voltage import FIGURE3_VOLTAGES
    from repro.obs import trace

    voltages = FIGURE3_VOLTAGES if sizes.voltages is None else sizes.voltages
    units = [("table1", partial(run_table1, ctx.workload, [library],
                                timing_backend="event"))
             for library in ctx.libraries]
    units += [("figure3", partial(run_figure3, ctx.workload, voltages=[vdd],
                                  library=ctx.stream_library,
                                  operands_per_point=FIGURE3_OPERANDS,
                                  timing_backend="event"))
              for vdd in voltages]
    chunk = sizes.stream_chunk
    units += [("stream", partial(run_latency_distribution,
                                 replace(ctx.workload, feature_vectors=features[at:at + chunk]),
                                 ctx.stream_library, chunk_size=chunk,
                                 timing_backend="bitpack"))
              for at in range(0, len(features), chunk)]
    outputs: Dict[str, List[Any]] = {"table1": [], "figure3": [], "stream": []}
    wall = norm = 0.0
    chunk_rates = []
    for phase, call in units:
        def spanned(phase=phase, call=call):
            with trace.span(f"bench.{phase}"):
                return call()

        out, seconds, scaled = host_timed(spanned, calibrated)
        outputs[phase].extend(out[0] if phase == "table1" else out)
        wall += seconds
        norm += scaled
        if phase == "stream":
            chunk_rates.append(len(out) / scaled)
    return {"rows": outputs["table1"], "points": outputs["figure3"],
            "stream": outputs["stream"], "wall_s": wall, "norm_s": norm,
            "chunk_rates": chunk_rates}


def check(out: Dict[str, Any], features: np.ndarray, reference: Dict[str, Any],
          checker: Checker) -> None:
    """Compare one repetition's artefacts with the committed reference."""
    from repro.analysis.latency import summarize_latencies
    from repro.datapath.datapath import DualRailDatapath

    for row in out["rows"]:
        key = f"{row.technology}/{row.design}"
        expected = reference["table1"].get(key)
        if expected is None:
            checker.miss(f"table1: unexpected row {key}")
        else:
            checker.check(asdict(row), expected, f"table1[{key}]")
    for point in out["points"]:
        key = f"{point.vdd:g}"
        expected = reference["figure3"].get(key)
        if expected is None:
            checker.miss(f"figure3: unexpected supply {key}")
        else:
            checker.check(asdict(point), expected, f"figure3[{key}]")

    patterns = reference["patterns"]
    index = pattern_index(features)
    want_sv = np.asarray(patterns["t_s_to_v"])[index]
    want_vs = np.asarray(patterns["t_v_to_s"])[index]
    want_verdict = np.asarray(patterns["verdict"])[index]
    results = out["stream"]
    got_sv = np.array([r.t_s_to_v for r in results])
    got_vs = np.array([r.t_v_to_s for r in results])
    got_verdict = np.array([DualRailDatapath.decode_verdict(r.one_of_n_outputs)
                            for r in results])
    if len(results) != len(features):
        checker.miss(f"stream: {len(results)} results for {len(features)} operands")
        return
    ok = (
        np.isclose(got_sv, want_sv, rtol=RTOL, atol=0.0)
        & np.isclose(got_vs, want_vs, rtol=RTOL, atol=0.0)
        & (got_verdict == want_verdict)
    )
    checker.count(int(ok.size), int((~ok).sum()))
    for k in np.flatnonzero(~ok)[:3]:
        checker.note(
            f"stream[{k}]: ({got_sv[k]!r}, {got_vs[k]!r}, {got_verdict[k]}) != "
            f"({want_sv[k]!r}, {want_vs[k]!r}, {want_verdict[k]})"
        )
    summary = summarize_latencies(results)
    ordered = np.sort(want_sv)

    def pick(fraction: float) -> float:
        return float(ordered[min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))])

    expected_summary = {
        "average": float(want_sv.mean()), "maximum": float(ordered[-1]),
        "minimum": float(ordered[0]), "p50": pick(0.50), "p95": pick(0.95),
        "reset_time": float(want_vs.max()), "samples": int(len(results)),
    }
    checker.check(asdict(summary), expected_summary, "stream.summary")


def oracle_cross_check(ctx: Context, features: np.ndarray, stream: List[Any],
                       checker: Checker) -> Dict[str, float]:
    """Re-time a prefix of the stream with the event oracle; compare per operand.

    Also the direct timing of the event layer (``environment.infer`` has no
    span): returns its time, operand count and events processed.
    """
    from repro.analysis import build_mapped_dual_rail, make_dual_rail_environment

    mapped = build_mapped_dual_rail(ctx.workload.config, ctx.stream_library)
    bench = make_dual_rail_environment(mapped)
    events_before = bench.simulator.events_processed
    t0 = time.perf_counter()
    oracle = [
        bench.environment.infer(
            mapped.datapath.operand_assignments(f, ctx.workload.exclude)
        )
        for f in features
    ]
    infer_s = time.perf_counter() - t0
    for k, (event, timed) in enumerate(zip(oracle, stream)):
        checker.check([timed.t_s_to_v, timed.t_v_to_s], [event.t_s_to_v, event.t_v_to_s],
                      f"oracle[{k}]")
    return {
        "event.infer_s": infer_s,
        "event.operands": len(oracle),
        "event.events": bench.simulator.events_processed - events_before,
    }


def _decode_span(record: Any, chain: List[str]) -> Any:
    # A vectorized-timing chunk's only unspanned work is the per-operand
    # result assembly of timed_dual_rail_run (map and timing have spans).
    if record.name == "run_parallel.chunk" and "bench.stream" in chain:
        return "measure.decode"
    return None


def run(seed: int, seconds: float, traced: bool, sizes: Sizes = Sizes(),
        reference: Dict[str, Any] = None) -> int:
    """Measure the workload; print the report and result line; exit code."""
    from repro.obs import trace

    reference = load_reference(NAME) if reference is None else reference
    features = stream_features(seed, sizes.stream_operands)
    checker = Checker()
    ctx, setup_s = timed_setup(setup, sizes.setups)
    report: List[str] = []

    walls: List[float] = []
    norm_walls: List[float] = []
    chunk_rates: List[float] = []
    traced_walls: List[float] = []
    per_rep: List[Dict[str, float]] = []
    tables = []
    last: Dict[str, Any] = {}

    def rep(index: int) -> None:
        # A traced run alternates untraced and traced repetitions; a traced
        # one repeats set-up inside the trace so training shows as a layer.
        if traced and index % 2 == 1:
            trace.reset()
            trace.enable()
            try:
                with trace.span("bench.rep"):
                    with trace.span("bench.setup"):
                        traced_ctx = setup()
                    out = body(traced_ctx, features, sizes, calibrated=False)
            finally:
                trace.disable()
            records = trace.drain()
            traced_walls.append(out["wall_s"])
            wall = next(r for r in records if r.name == "bench.rep").duration_us / 1e6
            table = ledger(records, _decode_span)
            tables.append(table)
            per_rep.append(layer_metrics(records, table, wall))
        else:
            out = body(ctx, features, sizes, calibrated=not traced)
            walls.append(out["wall_s"])
            norm_walls.append(out["norm_s"])
            chunk_rates.extend(out["chunk_rates"])
        check(out, features, reference, checker)
        last["stream"] = out["stream"]

    repeat(rep, seconds, min_reps=2 if traced else 1)
    event = oracle_cross_check(ctx, features[: sizes.oracle_prefix], last["stream"], checker)
    report.append(f"  repetitions {len(walls)} untraced, {len(traced_walls)} traced")
    report.append("  untraced wall s: " + ", ".join(f"{w:.3f}" for w in walls))
    if not traced:
        report.append("  reference-host s: " + ", ".join(f"{w:.3f}" for w in norm_walls))
        values = {
            "wall_s": median(norm_walls),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": median(chunk_rates),
        }
        return emit(NAME, False, checker, values, report)

    values = median_metrics(per_rep)
    values.update(event)
    libraries = {lib.name for lib in ctx.libraries} | {ctx.stream_library.name}
    values["synth.map_reuse"] = (
        len(libraries) / values["synth.maps"] if values["synth.maps"] else 0.0
    )
    values["obs.trace_overhead_pct"] = (median(traced_walls) / median(walls) - 1.0) * 100.0
    merged = merge_tables(tables)
    report.extend(format_ledger(merged, sum(r["self_s"] for r in merged.values())))
    return emit(NAME, True, checker, with_unentered_layers(values), report)
