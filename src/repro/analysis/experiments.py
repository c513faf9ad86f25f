"""End-to-end experiment harnesses for the paper's evaluation artefacts.

These functions are shared by the benchmarks (``benchmarks/``), the examples
(``examples/``) and the integration tests so that every consumer measures the
designs the same way:

* :func:`measure_dual_rail` — build, map, and simulate the dual-rail
  datapath for a workload; returns latency/power/area/correctness figures.
* :func:`measure_single_rail` — the same for the clocked baseline.
* :func:`functional_sweep` — decisions + switching activity only, through
  the vectorized batch backend (no timing, orders of magnitude faster).
* :func:`run_table1` — both designs on both libraries → Table-I rows.
* :func:`run_figure3` — the dual-rail design on the subthreshold library
  across the 0.25–1.2 V supply range → Figure-3 points.
* :func:`run_latency_distribution` — the per-operand latency stream behind
  the latency-distribution analysis (contribution 2).
* :func:`run_reduced_cd_comparison` — reduced vs full completion detection.
* :func:`run_hdl_export` — map a trained workload's datapath, emit it as
  structural Verilog with a self-checking handshake testbench, and prove
  the emission correct via the round-trip equivalence check.
* :func:`default_workload` — a trained-Tsetlin-machine workload (noisy-XOR)
  with the exclude matrix and feature stream the experiments run on.

Backends and parallelism
------------------------
The sweep harnesses accept ``backend=`` and ``jobs=`` arguments:

* ``backend="event"`` (default) is the seed behaviour: every quantity comes
  from the timing-accurate event-driven simulation.
* ``backend="batch"`` obtains the *functional* quantities (verdicts,
  decisions, correctness) from the vectorized batch backend while all timing
  quantities (latency, grace, power windows) still come from the event
  simulation — so the numbers are identical to the event path, by
  construction and by test.
* ``backend="bitpack"`` does the same through the bit-packed 64-lane engine
  (64 samples per ``uint64`` word) — the fastest functional path; results
  are identical to both other backends.
* ``jobs=N`` fans independent work units (voltage points, library×design
  measurements, operand chunks) out over :func:`repro.analysis.runner.run_parallel`;
  results are deterministic and identical for every ``jobs`` value.
* ``timing_backend="batch"|"bitpack"`` (on :func:`measure_dual_rail`,
  :func:`run_table1`, :func:`run_figure3`, :func:`run_latency_distribution`)
  swaps the *timing* source: instead of event-simulating every operand, the
  vectorized data-dependent timing engine (:mod:`repro.sim.backends.timed`)
  times the whole stream in one levelized pass — per-operand latencies,
  reset times and energies equivalent to the event oracle (see the
  timing-and-energy-model guide for the tolerance contract) at batch-backend
  throughput.  ``timing_backend="event"`` (default) keeps the seed
  behaviour and remains the equivalence oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.library import CellLibrary
from repro.core.completion import GracePeriod, compute_grace_period
from repro.datapath.datapath import DatapathConfig, DualRailDatapath
from repro.datapath.sync_datapath import SingleRailDatapath
from repro.sim.handshake import SynchronousEnvironment
from repro.sim.power import PowerAccountant, PowerReport
from repro.sim.simulator import GateLevelSimulator
from repro.sim.voltage import FIGURE3_VOLTAGES
from repro.synth.flow import HdlExportOptions, SynthesisResult, synthesize
from repro.tm.datasets import random_operand_stream

from .latency import LatencySummary, summarize_latencies
from .measure import (
    FunctionalSweep,
    Workload,
    batch_functional_pass,
    build_mapped_dual_rail,
    check_timing_backend,
    decode_verdict_planes,
    make_dual_rail_environment,
    rebind_interface,
    resolve_libraries,
    resolve_library,
    resolve_workload,
    timed_dual_rail_run,
    timed_power_report,
    truncate_workload,
    verdict_signal,
)
from .runner import run_parallel
from .tables import Figure3Point, Table1Row
from .throughput import dual_rail_throughput, synchronous_throughput

#: Backends the experiment harnesses can schedule.  Deliberately a subset of
#: :func:`repro.sim.backends.available_backends`: the harness must know which
#: quantities each backend can produce (timing always stays event-driven), so
#: a backend registered with the generic registry is not automatically usable
#: here.
EXPERIMENT_BACKENDS = ("event", "batch", "bitpack")


def _check_backend(backend: str) -> None:
    if backend not in EXPERIMENT_BACKENDS:
        raise ValueError(
            f"unknown experiment backend {backend!r}; expected one of {EXPERIMENT_BACKENDS}"
        )


@dataclass
class DualRailMeasurement:
    """Everything measured from one dual-rail simulation run."""

    library: str
    synthesis: SynthesisResult
    latency: LatencySummary
    power: PowerReport
    grace: GracePeriod
    throughput_millions: float
    correctness: float
    monotonic: bool
    latencies_ps: List[float] = field(default_factory=list)
    verdicts: List[str] = field(default_factory=list)


@dataclass
class SingleRailMeasurement:
    """Everything measured from one single-rail (synchronous) simulation run."""

    library: str
    synthesis: SynthesisResult
    clock_period_ps: float
    power: PowerReport
    throughput_millions: float
    correctness: float


def functional_sweep(
    workload: Workload,
    library: Optional[CellLibrary] = None,
    vdd: Optional[float] = None,
    synthesize_netlist: bool = True,
    backend: str = "batch",
) -> FunctionalSweep:
    """Decisions, verdicts and switching activity for a workload — no timing.

    This is the fast path for correctness sweeps and energy estimation over
    large operand streams: the whole stream is evaluated in one vectorized
    pass through the batch (or bit-packed) backend (see the
    ``BENCH_sim.json`` numbers for the samples/sec gap versus the event
    backend).

    Parameters
    ----------
    synthesize_netlist:
        When ``True`` (default) the technology-mapped netlist is evaluated —
        the same netlist :func:`measure_dual_rail` simulates; ``False`` skips
        synthesis and evaluates the as-built netlist (faster setup, same
        functional results).
    backend:
        ``"batch"`` (default) or ``"bitpack"`` — both produce identical
        results; ``"bitpack"`` packs 64 samples per word and is the fastest
        on long streams.
    """
    library = resolve_library(library)
    datapath = DualRailDatapath(workload.config, library=library)
    circuit = datapath.circuit
    if synthesize_netlist:
        synthesis = synthesize(
            circuit.netlist, library, vdd=vdd, clocked=False, enforce_unate=True
        )
        circuit = rebind_interface(circuit, synthesis)
    return batch_functional_pass(
        datapath, circuit, workload, library, vdd=vdd, backend=backend
    )


def measure_dual_rail(
    workload: Workload,
    library: CellLibrary,
    vdd: Optional[float] = None,
    check_monotonic: bool = True,
    backend: str = "event",
    timing_backend: str = "event",
) -> DualRailMeasurement:
    """Build, synthesise and simulate the dual-rail datapath on *workload*.

    With ``backend="batch"`` or ``backend="bitpack"`` the verdicts and
    correctness come from the selected vectorized backend (one pass over the
    whole operand stream) while every timing quantity — latency, reset
    times, grace period, power windows — still comes from the event-driven
    simulation.

    ``timing_backend`` selects where the timing quantities come from:

    * ``"event"`` (default) — the seed behaviour: per-operand event-driven
      handshake cycles, with the monotonicity and forbidden-state monitors
      attached as requested;
    * ``"batch"`` / ``"bitpack"`` — the vectorized data-dependent timing
      engine (:mod:`repro.sim.backends.timed`): the whole stream is timed
      in one levelized pass, producing per-operand latencies, reset times
      and energies equivalent to the event oracle (pinned by the
      equivalence suite, within float re-association accuracy) at one to
      three orders of magnitude higher throughput.  No event simulation
      runs at all, so ``check_monotonic`` does not apply — monotonic
      settling is an *assumption* of the timed model (guaranteed by the
      unate mapping, Requirement 2) and the measurement reports
      ``monotonic=True``; see the timing-and-energy-model guide.
    """
    _check_backend(backend)
    check_timing_backend(timing_backend)
    if timing_backend != "event":
        return _measure_dual_rail_timed(workload, library, vdd, timing_backend)
    mapped = build_mapped_dual_rail(workload.config, library, vdd=vdd)
    datapath, synthesis = mapped.datapath, mapped.synthesis
    circuit, grace = mapped.circuit, mapped.grace
    bench = make_dual_rail_environment(
        mapped, check_monotonic=check_monotonic, check_forbidden=True
    )
    simulator, environment = bench.simulator, bench.environment

    accountant = PowerAccountant(circuit.netlist, library, vdd=vdd)
    window_start = simulator.time
    results = []
    correct = 0
    verdicts: List[str] = []
    functional: Optional[FunctionalSweep] = None
    if backend != "event":
        # One vectorized pass answers every functional question; the event
        # loop below is then purely for the timing quantities.  Activity and
        # energy come from the event transition log here, so the vectorized
        # pass skips its own (with_activity=False).
        functional = batch_functional_pass(
            datapath, circuit, workload, library, vdd=vdd,
            with_activity=False, backend=backend,
        )
    for index, features in enumerate(workload.feature_vectors):
        assignments = datapath.operand_assignments(features, workload.exclude)
        result = environment.infer(assignments)
        results.append(result)
        if functional is not None:
            verdict = functional.verdicts[index]
        else:
            verdict = DualRailDatapath.decode_verdict(result.one_of_n_outputs)
        verdicts.append(verdict)
        decision = DualRailDatapath.decision_from_verdict(verdict)
        if decision == workload.model.decision(features):
            correct += 1
    window_end = simulator.time

    latency = summarize_latencies(results)
    power = accountant.report(simulator, window_start, window_end, operations=len(results))
    throughput = dual_rail_throughput(results, grace_period=grace.td)
    return DualRailMeasurement(
        library=library.name,
        synthesis=synthesis,
        latency=latency,
        power=power,
        grace=grace,
        throughput_millions=throughput.millions_per_second,
        correctness=correct / len(results),
        monotonic=bench.monitors_ok,
        latencies_ps=[r.t_s_to_v for r in results],
        verdicts=verdicts,
    )


def _measure_dual_rail_timed(
    workload: Workload,
    library: CellLibrary,
    vdd: Optional[float],
    timing_backend: str,
) -> DualRailMeasurement:
    """The all-vectorized measurement path behind ``timing_backend != "event"``.

    One levelized timed pass produces every quantity the event loop would:
    per-operand latencies and reset times, the power window, switching
    energy, verdicts and correctness.  The construction half (build → map →
    grace) is shared with the event path, so area, grace-period and
    synthesis figures are identical by construction.
    """
    mapped = build_mapped_dual_rail(workload.config, library, vdd=vdd)
    run = timed_dual_rail_run(mapped, workload, timing_backend)
    verdicts = decode_verdict_planes(run.timed, verdict_signal(mapped.circuit))
    correct = sum(
        1
        for verdict, features in zip(verdicts, workload.feature_vectors)
        if DualRailDatapath.decision_from_verdict(verdict)
        == workload.model.decision(features)
    )
    latency = summarize_latencies(run.results)
    power = timed_power_report(mapped, run)
    throughput = dual_rail_throughput(run.results, grace_period=mapped.grace.td)
    return DualRailMeasurement(
        library=library.name,
        synthesis=mapped.synthesis,
        latency=latency,
        power=power,
        grace=mapped.grace,
        throughput_millions=throughput.millions_per_second,
        correctness=correct / len(verdicts),
        monotonic=True,  # model assumption (unate mapping), not a monitor verdict
        latencies_ps=[r.t_s_to_v for r in run.results],
        verdicts=verdicts,
    )


def measure_single_rail(
    workload: Workload,
    library: CellLibrary,
    vdd: Optional[float] = None,
) -> SingleRailMeasurement:
    """Build, synthesise and simulate the synchronous baseline on *workload*."""
    datapath = SingleRailDatapath(workload.config)
    synthesis = synthesize(datapath.netlist, library, vdd=vdd, clocked=True)
    clock_period = synthesis.clock_period

    simulator = GateLevelSimulator(synthesis.netlist, library, vdd=vdd)
    environment = SynchronousEnvironment(
        simulator,
        clock_net=datapath.interface.clock_net,
        input_nets=datapath.interface.input_nets,
        output_nets=datapath.interface.output_nets,
        clock_period=clock_period,
    )
    accountant = PowerAccountant(synthesis.netlist, library, vdd=vdd)

    window_start = simulator.time
    correct = 0
    total = 0
    for features in workload.feature_vectors:
        assignments = datapath.operand_assignments(features, workload.exclude)
        cycle = environment.run_operand(assignments)
        outputs = SingleRailDatapath.decode_outputs(cycle.outputs)
        total += 1
        if outputs.get("decision") == workload.model.decision(features):
            correct += 1
    window_end = simulator.time

    # One operand per clock cycle once the registers are primed; the
    # measurement loop above runs two cycles per operand for simplicity, so
    # power is normalised to the pipelined (one-cycle) operation period.
    operations = max(1, total)
    power = accountant.report(simulator, window_start, window_end, operations=operations)
    throughput = synchronous_throughput(clock_period)
    return SingleRailMeasurement(
        library=library.name,
        synthesis=synthesis,
        clock_period_ps=clock_period,
        power=power,
        throughput_millions=throughput.millions_per_second,
        correctness=correct / total if total else 0.0,
    )


def dual_rail_table_row(measurement: DualRailMeasurement) -> Table1Row:
    """Convert a dual-rail measurement into a Table-I row."""
    return Table1Row(
        technology=measurement.library,
        design="Proposed Dual-rail",
        cell_area=measurement.synthesis.area.total,
        sequential_area=measurement.synthesis.area.sequential,
        avg_power_uw=measurement.power.total_uw,
        leakage_power_nw=measurement.power.leakage_nw,
        avg_latency_ps=measurement.latency.average,
        max_latency_ps=measurement.latency.maximum,
        t_v_to_s_ps=measurement.latency.reset_time,
        avg_inferences_millions=measurement.throughput_millions,
        extra={
            "energy_per_inference_fj": measurement.power.energy_per_operation_fj,
            "grace_td_ps": measurement.grace.td,
            "correctness": measurement.correctness,
        },
    )


def single_rail_table_row(measurement: SingleRailMeasurement) -> Table1Row:
    """Convert a single-rail measurement into a Table-I row."""
    return Table1Row(
        technology=measurement.library,
        design="Single-rail",
        cell_area=measurement.synthesis.area.total,
        sequential_area=measurement.synthesis.area.sequential,
        avg_power_uw=measurement.power.total_uw,
        leakage_power_nw=measurement.power.leakage_nw,
        avg_latency_ps=measurement.clock_period_ps,
        max_latency_ps=measurement.clock_period_ps,
        t_v_to_s_ps=None,
        avg_inferences_millions=measurement.throughput_millions,
        extra={
            "energy_per_inference_fj": measurement.power.energy_per_operation_fj,
            "correctness": measurement.correctness,
        },
    )


def _table1_worker(item: Tuple[Workload, CellLibrary, str, str, str]) -> object:
    """Process-pool work unit of :func:`run_table1`: one library × design."""
    workload, library, design, backend, timing_backend = item
    if design == "single-rail":
        return measure_single_rail(workload, library)
    return measure_dual_rail(
        workload, library, backend=backend, timing_backend=timing_backend
    )


def run_table1(
    workload: Optional[Workload] = None,
    libraries: Optional[Sequence[CellLibrary]] = None,
    backend: str = "event",
    jobs: int = 1,
    timing_backend: str = "event",
) -> Tuple[List[Table1Row], Dict[str, object]]:
    """Reproduce Table I: single-rail vs dual-rail on both libraries.

    Returns the table rows plus the raw measurement objects keyed by
    ``"<library>/<design>"`` for deeper inspection.  The four measurements
    are independent work units, so ``jobs=4`` runs them concurrently; the
    single-rail baseline is clocked (flip-flops) and therefore always uses
    the event backend regardless of *backend* or *timing_backend* (its
    latency is the STA clock period by definition).

    ``timing_backend="batch"`` (or ``"bitpack"``) obtains the dual-rail
    latency, power and throughput columns from the vectorized timing engine
    instead of per-operand event simulation — the whole-table wall-clock
    lever; values agree with the event run within float re-association
    accuracy (documented in the timing-and-energy-model guide).
    """
    _check_backend(backend)
    check_timing_backend(timing_backend)
    workload = resolve_workload(workload)
    libs = resolve_libraries(libraries)
    items = []
    for library in libs:
        items.append((workload, library, "single-rail", backend, timing_backend))
        items.append((workload, library, "dual-rail", backend, timing_backend))
    measurements = run_parallel(_table1_worker, items, jobs=jobs)
    rows: List[Table1Row] = []
    raw: Dict[str, object] = {}
    for (workload, library, design, _backend, _timing), measurement in zip(
        items, measurements
    ):
        if design == "single-rail":
            rows.append(single_rail_table_row(measurement))
        else:
            rows.append(dual_rail_table_row(measurement))
        raw[f"{library.name}/{design}"] = measurement
    return rows, raw


def _figure3_worker(
    item: Tuple[Workload, CellLibrary, float, str, str]
) -> Figure3Point:
    """Process-pool work unit of :func:`run_figure3`: one voltage point."""
    workload, library, vdd, backend, timing_backend = item
    if not library.voltage_model.is_functional(vdd):
        return Figure3Point(vdd=vdd, avg_latency_ps=float("nan"),
                            max_latency_ps=float("nan"),
                            functional=False, correct=False)
    measurement = measure_dual_rail(
        workload, library, vdd=vdd, check_monotonic=False, backend=backend,
        timing_backend=timing_backend,
    )
    return Figure3Point(
        vdd=vdd,
        avg_latency_ps=measurement.latency.average,
        max_latency_ps=measurement.latency.maximum,
        functional=True,
        correct=measurement.correctness == 1.0,
    )


def run_figure3(
    workload: Optional[Workload] = None,
    voltages: Sequence[float] = FIGURE3_VOLTAGES,
    library: Optional[CellLibrary] = None,
    operands_per_point: Optional[int] = None,
    backend: str = "event",
    jobs: int = 1,
    timing_backend: str = "event",
) -> List[Figure3Point]:
    """Reproduce Figure 3: dual-rail latency versus supply voltage.

    The dual-rail datapath is simulated on the subthreshold-capable
    FULL DIFFUSION library at every supply point; functional correctness is
    checked at each voltage (the paper's headline robustness claim).

    Every voltage point is an independent work unit: ``jobs=N`` sweeps N
    supplies concurrently with identical results.  ``backend="batch"``
    sources the per-point correctness check from the vectorized backend as
    a live cross-check (latencies stay event-driven, so this knob does not
    make a point cheaper).  ``timing_backend="batch"``/``"bitpack"`` is the
    per-point wall-clock lever: the latencies the figure plots come from
    the vectorized timing engine, one levelized pass per voltage point
    instead of one event-driven handshake per operand, with sweep values
    equal to the event run within float re-association accuracy.
    """
    _check_backend(backend)
    check_timing_backend(timing_backend)
    workload = resolve_workload(workload, num_operands=12)
    library = resolve_library(library)
    sub_workload = truncate_workload(workload, operands_per_point)
    items = [
        (sub_workload, library, float(vdd), backend, timing_backend)
        for vdd in voltages
    ]
    return run_parallel(_figure3_worker, items, jobs=jobs)


def _latency_chunk_worker(
    item: Tuple[Workload, CellLibrary, Optional[float], np.ndarray, str]
) -> List[object]:
    """Work unit of :func:`run_latency_distribution`: one operand chunk.

    Builds a private datapath + simulator (work units share nothing, so any
    chunking gives identical per-operand measurements: every inference
    starts from the fully-settled spacer state).  Under a vectorized timing
    backend the chunk is timed in one levelized pass instead of one
    event-driven handshake per operand.
    """
    workload, library, vdd, chunk_features, timing_backend = item
    mapped = build_mapped_dual_rail(workload.config, library, vdd=vdd)
    if timing_backend != "event":
        chunk_workload = replace(workload, feature_vectors=np.asarray(chunk_features))
        return timed_dual_rail_run(mapped, chunk_workload, timing_backend).results
    bench = make_dual_rail_environment(mapped)
    results = []
    for features in chunk_features:
        assignments = mapped.datapath.operand_assignments(features, workload.exclude)
        results.append(bench.environment.infer(assignments))
    return results


#: Default operands per latency-distribution chunk.  A *constant* (rather
#: than an even split across ``jobs``) so that chunk boundaries — and hence
#: the absolute simulation time of every operand — are identical for every
#: ``jobs`` value, making the parallel sweep bit-reproducible.  Each chunk
#: pays one datapath build + synthesis, so the default is sized to cover the
#: paper-scale streams (<= 64 operands) in a single chunk — serial runs cost
#: exactly what the seed's single-environment loop did; pass a smaller
#: ``chunk_size`` to trade setup overhead for parallelism on short streams.
LATENCY_CHUNK_OPERANDS = 64


def run_latency_distribution(
    workload: Workload,
    library: CellLibrary,
    vdd: Optional[float] = None,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    timing_backend: str = "event",
) -> List[object]:
    """Per-operand dual-rail inference results for distribution analysis.

    Returns one :class:`~repro.sim.handshake.DualRailInferenceResult` per
    operand, in stream order — the input to ``latency_histogram`` and
    friends.  The stream is split into chunks of *chunk_size* operands
    (default :data:`LATENCY_CHUNK_OPERANDS`); each chunk simulates on its
    own datapath instance.  Chunk boundaries depend only on *chunk_size* —
    never on *jobs* — so ``jobs=1`` and ``jobs=N`` return bit-identical
    measurements (operands land at the same absolute simulation times).

    ``timing_backend="batch"``/``"bitpack"`` times each chunk in one
    vectorized pass (the long-stream wall-clock lever: chunks still fan out
    over *jobs*, and within a chunk the per-operand cost collapses to array
    sweeps).  Relative per-operand quantities match the event oracle within
    float re-association accuracy; absolute ``t_start`` timestamps restart
    at 0 per chunk, whereas the event path's origin is each chunk's initial
    reset settle.  A *chunk_size* below 1 raises :class:`ValueError`.
    """
    check_timing_backend(timing_backend)
    if chunk_size is None:
        chunk_size = LATENCY_CHUNK_OPERANDS
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    features = list(workload.feature_vectors)
    if not features:
        return []
    chunks = [
        np.asarray(features[start: start + chunk_size])
        for start in range(0, len(features), chunk_size)
    ]
    items = [(workload, library, vdd, chunk, timing_backend) for chunk in chunks]
    nested = run_parallel(_latency_chunk_worker, items, jobs=jobs)
    return [result for chunk_results in nested for result in chunk_results]


@dataclass
class ReducedCDComparison:
    """Reduced vs full completion detection, quantified (Section III-A).

    ``datapath_*_cells`` compare the schemes on the full inference datapath
    (a single 1-of-3 output, where both are tiny); ``block_*_area_um2``
    compare them on a multi-output block (the 8-input population counter),
    where the reduced scheme's AND-tree aggregation beats the C-element
    tree.  ``grace`` carries the timing-assumption numbers
    ``td = t_int − t_io`` and ``t_done(1→0)``.
    """

    datapath_reduced_cells: int
    datapath_full_cells: int
    block_reduced_area_um2: float
    block_full_area_um2: float
    grace: GracePeriod


def _cd_scheme_worker(
    item: Tuple[str, CellLibrary, DatapathConfig]
) -> Tuple[int, float, Optional[GracePeriod]]:
    """Work unit of :func:`run_reduced_cd_comparison`: one CD scheme.

    Returns the datapath completion cell count, the popcount-block CD area
    overhead, and — for the reduced scheme, whose timing assumption needs
    it — the grace period of the datapath just built.
    """
    from repro.core.completion import add_completion_detection, completion_overhead_area
    from repro.core.dual_rail import DualRailBuilder, SpacerPolarity
    from repro.datapath.popcount import dual_rail_popcount8

    scheme, library, config = item
    datapath_config = DatapathConfig(
        num_features=config.num_features,
        clauses_per_polarity=config.clauses_per_polarity,
        completion=scheme,
    )
    datapath = DualRailDatapath(datapath_config, library=library)
    info = datapath.circuit.metadata["completion"]
    grace = compute_grace_period(datapath.circuit, library) if scheme == "reduced" else None

    builder = DualRailBuilder(f"pop_cd_{scheme}")
    inputs = [builder.input_bit(f"x{i}") for i in range(8)]
    bits = dual_rail_popcount8(builder, inputs)
    for i, bit in enumerate(bits):
        builder.output_bit(f"y{i}", builder.align_polarity(bit, SpacerPolarity.ALL_ZERO))
    block = builder.build()
    add_completion_detection(block, scheme=scheme)
    return info.total_cells, completion_overhead_area(block, library), grace


@dataclass
class HdlExportReport:
    """Everything :func:`run_hdl_export` produced for one workload.

    Attributes
    ----------
    library:
        Target library the netlist was mapped onto before emission.
    design:
        Name of the exported top module.
    export:
        The :class:`repro.hdl.export.HdlExport` bundle (design text,
        primitives, round-trip report, file paths).
    testbench_bytes:
        Size of the generated handshake testbench.
    blocks:
        ``{block name: cell count}`` of the hierarchical partitioning.
    hierarchical_equivalent:
        ``True`` when the hierarchical emission flattens back into a
        gate-for-gate equivalent netlist as well.
    paths:
        All files written (empty when no directory was given).
    """

    library: str
    design: str
    export: object
    testbench_bytes: int
    blocks: Dict[str, int]
    hierarchical_equivalent: bool
    paths: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """``True`` when every verification step passed."""
        return bool(self.export.verified and self.hierarchical_equivalent)

    def summary(self) -> str:
        """Multi-line report used by ``examples/export_verilog.py`` and CI."""
        lines = [
            f"HDL export report — {self.design} on {self.library}",
            self.export.summary(),
            f"  testbench  : {self.testbench_bytes} bytes (handshake, self-checking)",
            f"  hierarchy  : {len(self.blocks)} blocks "
            f"({', '.join(f'{k}:{v}' for k, v in self.blocks.items())})",
            f"  hier check : "
            f"{'EQUIVALENT' if self.hierarchical_equivalent else 'NOT EQUIVALENT'}",
            f"  verdict    : {'OK' if self.ok else 'FAILED'}",
        ]
        return "\n".join(lines)


def run_hdl_export(
    workload: Optional[Workload] = None,
    library: Optional[CellLibrary] = None,
    directory: Optional[str] = None,
    testbench_operands: int = 16,
    roundtrip_vectors: int = 256,
    seed: int = 2021,
) -> HdlExportReport:
    """Export a workload's mapped dual-rail datapath as verified Verilog.

    The full pipeline: build the datapath for *workload* (default: the
    trained noisy-XOR workload), technology-map it onto *library* (default
    UMC LL), emit flat structural Verilog + behavioral primitives through
    the :func:`repro.synth.flow.synthesize` export hook (which also runs
    the round-trip equivalence proof), generate the self-checking
    spacer/valid handshake testbench, and additionally emit + flatten the
    per-block hierarchical form as a second equivalence witness.

    Parameters
    ----------
    directory:
        When given, all artefacts are written there: ``<design>.v``,
        ``primitives.v``, ``tb_<design>.v`` and ``<design>_hier.v``.
    """
    from repro.hdl import (
        check_equivalence,
        emit_verilog,
        generate_datapath_testbench,
        netlist_from_verilog,
        partition_by_attr,
    )

    workload = resolve_workload(workload)
    library = resolve_library(library, "UMC LL")
    datapath = DualRailDatapath(workload.config, library=library)
    synthesis = synthesize(
        datapath.circuit.netlist,
        library,
        clocked=False,
        enforce_unate=True,
        export=HdlExportOptions(
            directory=directory,
            testbench=False,  # the handshake testbench below replaces it
            verify=True,
            roundtrip_vectors=roundtrip_vectors,
            seed=seed,
        ),
    )
    mapped = synthesis.netlist
    export = synthesis.hdl

    stimulus = random_operand_stream(
        workload.config.num_features, testbench_operands, seed=seed
    )
    testbench = generate_datapath_testbench(
        datapath,
        workload.model,
        exclude=workload.exclude,
        feature_vectors=stimulus,
        seed=seed,
        netlist=mapped,
    )

    blocks = partition_by_attr(mapped)
    hier_text = emit_verilog(mapped, blocks=blocks)
    flattened = netlist_from_verilog(hier_text)
    hier_equivalence = check_equivalence(
        mapped, flattened, vectors=roundtrip_vectors, seed=seed
    )

    paths = dict(export.paths)
    if directory is not None:
        safe_name = mapped.name.replace("/", "_")
        tb_path = os.path.join(directory, f"tb_{safe_name}.v")
        hier_path = os.path.join(directory, f"{safe_name}_hier.v")
        with open(tb_path, "w", encoding="utf-8") as handle:
            handle.write(testbench)
        with open(hier_path, "w", encoding="utf-8") as handle:
            handle.write(hier_text)
        paths["testbench"] = tb_path
        paths["hierarchical"] = hier_path

    return HdlExportReport(
        library=library.name,
        design=mapped.name,
        export=export,
        testbench_bytes=len(testbench),
        blocks={name: len(cells) for name, cells in blocks.items()},
        hierarchical_equivalent=hier_equivalence.equivalent,
        paths=paths,
    )


def run_reduced_cd_comparison(
    library: Optional[CellLibrary] = None,
    config: Optional[DatapathConfig] = None,
    jobs: int = 1,
) -> ReducedCDComparison:
    """Quantify the reduced completion-detection proposal against full CD.

    The two schemes are independent work units (``jobs=2`` builds them
    concurrently); the returned grace period is computed for the reduced
    scheme, which is the one whose timing assumption needs it.
    """
    library = resolve_library(library, "UMC LL")
    config = config if config is not None else DatapathConfig(num_features=4,
                                                              clauses_per_polarity=8)
    items = [("reduced", library, config), ("full", library, config)]
    (reduced_cells, reduced_area, grace), (full_cells, full_area, _) = run_parallel(
        _cd_scheme_worker, items, jobs=jobs
    )
    return ReducedCDComparison(
        datapath_reduced_cells=reduced_cells,
        datapath_full_cells=full_cells,
        block_reduced_area_um2=reduced_area,
        block_full_area_um2=full_area,
        grace=grace,
    )
