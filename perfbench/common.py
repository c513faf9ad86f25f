"""Shared plumbing of the benchmark: metrics, repetition, checks, the ledger.

Everything here is workload-agnostic.  The three workload modules
(``paper.py``, ``dse.py``, ``serve.py``) call into it to

* find the program (``src/`` of the checkout) without installing it;
* repeat a measured body for the run's time budget and take medians;
* compare outputs against the committed references (exact for discrete
  fields, ``RTOL`` for floats);
* turn a trace (``repro.obs`` span records plus the benchmark's own
  ``bench.*`` spans) into the per-layer ledger: self time per layer, span
  counts, and the share of wall time no layer accounts for.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where runs write their reports (ignored by git).
OUT_DIR = ROOT / ".perfbench_out"
#: Committed reference outputs.
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Relative tolerance for ps/fJ/area floats: the vectorized timing engine
#: re-associates float sums, so it agrees with the event oracle to ~1e-14;
#: 1e-9 is the tolerance the repository documents for that equivalence.
RTOL = 1e-9

#: End-to-end metrics: (name, unit).  Every workload prints all of them.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
)

#: Per-layer metrics: (name, unit).  Every workload prints all of them in a
#: traced run; a layer the workload never enters reads 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("tm.fit_s", "s"),
    ("tm.fits", "count"),
    ("synth.map_s", "s"),
    ("synth.maps", "count"),
    ("synth.map_reuse", "ratio"),
    ("program.compile_s", "s"),
    ("program.compiles", "count"),
    ("kernels.build_s", "s"),
    ("kernels.builds", "count"),
    ("backend.run_s", "s"),
    ("backend.samples", "count"),
    ("timed.run_s", "s"),
    ("timed.samples", "count"),
    ("timed.samples_per_s", "1/s"),
    ("measure.decode_s", "s"),
    ("event.infer_s", "s"),
    ("event.operands", "count"),
    ("event.events", "count"),
    ("explore.point_s", "s"),
    ("explore.store_s", "s"),
    ("serve.wait_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.batch_fill", "ratio"),
    ("serve.batches", "count"),
    ("serve.rejected", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.p50_ms.low", "ms"),
    ("serve.p99_ms.low", "ms"),
    ("serve.p50_ms.high", "ms"),
    ("serve.p99_ms.high", "ms"),
    ("serve.goodput_rps.high", "1/s"),
    ("serve.capacity_rps", "1/s"),
    ("unattributed_share", "ratio"),
    ("obs.trace_overhead_pct", "%"),
)


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark drives."""


def ensure_src() -> None:
    """Put the checkout's ``src/`` on ``sys.path`` (the program is not installed)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources at {src}: run from a full checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


# --------------------------------------------------------------------------
# Measurement helpers
# --------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile (0-100) of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or its largest waited child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def repeat(body: Callable[[int], Any], seconds: float, min_reps: int = 1) -> List[Any]:
    """Run ``body(rep)`` until *seconds* would be exceeded; return its results.

    Another repetition starts only while the elapsed time plus the median
    repetition so far still fits the budget, so a run overshoots by at most
    the spread of one repetition.
    """
    results: List[Any] = []
    durations: List[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(body(len(results)))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= min_reps and elapsed + median(durations) > seconds:
            return results


def timed_setup(build: Callable[[], Any], times: int) -> Tuple[Any, float]:
    """Run *build* several times; return its last product and the median time.

    The time is in reference-host seconds (see :func:`host_timed`).
    """
    durations = []
    product = None
    for _ in range(times):
        product, _, scaled = host_timed(build)
        durations.append(scaled)
    return product, median(durations)


# --------------------------------------------------------------------------
# Host-speed normalization
# --------------------------------------------------------------------------

#: Iterations of the calibration loop.
CAL_ITERATIONS = 150_000
#: Median time of the calibration loop on the 2-vCPU x86-64 Linux VM the
#: benchmark was built on (CPython 3.11).
CAL_REF_S = 0.018


def calibration_s() -> float:
    """Time one run of a fixed pure-Python loop that calls no program code."""
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(CAL_ITERATIONS):
        table[i & 255] = acc
        acc += (i * 7) % 13
    return time.perf_counter() - t0


def host_scale(before: float, after: float) -> float:
    """Factor from this host's current speed to the reference host's.

    *before* and *after* are :func:`calibration_s` readings taken right
    before and right after the timed work.
    """
    return CAL_REF_S / (0.5 * (before + after))


def host_timed(call: Callable[[], Any], calibrated: bool = True) -> Tuple[Any, float, float]:
    """Run *call* between two calibration loops.

    Returns its result, its wall time in seconds, and that time in
    reference-host seconds: the wall time scaled by :func:`host_scale`.  On
    a shared host whose speed swings by 1.5x within minutes, the scaled
    time of a call repeats far better than its wall time, because the
    calibration loop slows down with the host (see README, "Steadiness").
    Without *calibrated* no loop runs and both times are the wall time.
    """
    before = calibration_s() if calibrated else 0.0
    t0 = time.perf_counter()
    result = call()
    wall = time.perf_counter() - t0
    if not calibrated:
        return result, wall, wall
    return result, wall, wall * host_scale(before, calibration_s())


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------


def _floats_agree(measured: float, reference: float) -> bool:
    if math.isnan(measured) or math.isnan(reference):
        return math.isnan(measured) and math.isnan(reference)
    return math.isclose(measured, reference, rel_tol=RTOL, abs_tol=0.0)


def compare(measured: Any, reference: Any, path: str = "") -> List[str]:
    """Mismatches between two JSON-like values (empty list = they agree).

    Floats agree within :data:`RTOL`; everything else (strings, ints,
    bools, ``None``, dict keys, list lengths) must match exactly.
    """
    if isinstance(reference, dict):
        if not isinstance(measured, dict) or set(measured) != set(reference):
            return [f"{path}: fields differ from the reference"]
        out: List[str] = []
        for key in reference:
            out.extend(compare(measured[key], reference[key], f"{path}.{key}"))
        return out
    if isinstance(reference, list):
        if not isinstance(measured, list) or len(measured) != len(reference):
            return [f"{path}: length differs from the reference"]
        out = []
        for index, (m, r) in enumerate(zip(measured, reference)):
            out.extend(compare(m, r, f"{path}[{index}]"))
        return out
    if isinstance(reference, float) and not isinstance(measured, bool) and isinstance(
        measured, (int, float)
    ):
        return [] if _floats_agree(float(measured), reference) else [
            f"{path}: {measured!r} != {reference!r}"
        ]
    if type(measured) is not type(reference) or measured != reference:
        return [f"{path}: {measured!r} != {reference!r}"]
    return []


def load_reference(workload: str) -> Dict[str, Any]:
    """The committed reference outputs of *workload*."""
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


class Checker:
    """Counts checked operations and keeps the first few mismatches.

    ``failed`` counts every operation that failed (mismatched, or refused
    by the system); only mismatches make the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.messages: List[str] = []

    def note(self, message: str) -> None:
        """Keep *message* for the report (the first ten only)."""
        if len(self.messages) < 10:
            self.messages.append(message)

    def check(self, measured: Any, reference: Any, path: str) -> bool:
        """Check one operation's output; returns whether it matched."""
        self.attempted += 1
        problems = compare(measured, reference, path)
        if problems:
            self.failed += 1
            self.mismatches += 1
            for problem in problems[:3]:
                self.note(problem)
        return not problems

    def count(self, attempted: int, mismatched: int, refused: int = 0) -> None:
        """Book a batch of operations checked elsewhere (e.g. vectorized)."""
        self.attempted += attempted
        self.failed += mismatched + refused
        self.mismatches += mismatched

    def miss(self, message: str) -> None:
        """Count one attempted operation whose output is missing or unexpected."""
        self.count(1, 1)
        self.note(message)

    @property
    def correct(self) -> bool:
        """No output mismatched, and something was checked."""
        return self.mismatches == 0 and self.attempted > 0


# --------------------------------------------------------------------------
# Per-layer ledger from trace records
# --------------------------------------------------------------------------

#: Which layer owns the self time of each span name.  Names not listed
#: (the benchmark's ``bench.*`` containers, ``run_parallel*``, ``dse.point``,
#: ``dse.simulate``, ``measure.timed``, ``measure.functional``) are
#: containers: their self time is work no layer's span covers.
SPAN_LAYER: Dict[str, str] = {
    "bench.train": "tm.fit",
    "dse.train": "tm.fit",
    "measure.map": "synth.map",
    "backend.compile": "program.compile",
    "kernel.build": "kernels.build",
    "kernel.level_group": "backend.run",
    "bitpack.pack": "backend.run",
    "bitpack.levels": "backend.run",
    "bitpack.activity": "backend.run",
    "batch.pack": "backend.run",
    "batch.levels": "backend.run",
    "batch.activity": "backend.run",
    "worker.classify": "backend.run",
    "timed.run": "timed.run",
    "timed.forward": "timed.run",
    "timed.backward": "timed.run",
}

#: Spans whose count is the layer's call count.
LAYER_CALL_SPAN = {
    "tm.fit": ("bench.train", "dse.train"),
    "synth.map": ("measure.map",),
    "program.compile": ("backend.compile",),
    "kernels.build": ("kernel.build",),
}


def self_times(records: Sequence[Any]) -> Dict[str, float]:
    """Self time (µs) of every span id: duration minus its direct children."""
    child: Dict[str, float] = {}
    for record in records:
        if record.parent_id is not None:
            child[record.parent_id] = child.get(record.parent_id, 0.0) + record.duration_us
    return {
        r.span_id: max(0.0, r.duration_us - child.get(r.span_id, 0.0)) for r in records
    }


def ancestors(records: Sequence[Any]) -> Callable[[Any], List[str]]:
    """A function returning the names of a record's ancestors, innermost first."""
    by_id = {r.span_id: r for r in records}

    def chain(record: Any) -> List[str]:
        names = []
        parent = by_id.get(record.parent_id)
        while parent is not None:
            names.append(parent.name)
            parent = by_id.get(parent.parent_id)
        return names

    return chain


def ledger(
    records: Sequence[Any],
    structural: Optional[Callable[[Any, List[str]], Optional[str]]] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-layer self time (s) and span count of one traced repetition.

    *structural* may book a container span's self time to a layer when the
    code it wraps is known to be that layer's work alone (e.g. the result
    assembly of a vectorized-timing chunk); it receives the record and its
    ancestor names and returns a layer name or ``None``.  Everything not
    booked lands in ``unattributed``.
    """
    selfs = self_times(records)
    chain = ancestors(records)
    table: Dict[str, Dict[str, float]] = {}
    for record in records:
        layer = SPAN_LAYER.get(record.name)
        if layer is None and structural is not None:
            layer = structural(record, chain(record))
        row = table.setdefault(layer or "unattributed", {"self_s": 0.0, "spans": 0})
        row["self_s"] += selfs[record.span_id] / 1e6
        row["spans"] += 1
    return table


def layer_metrics(
    records: Sequence[Any],
    table: Dict[str, Dict[str, float]],
    wall_s: float,
) -> Dict[str, float]:
    """The per-layer metrics the trace alone determines, for one repetition."""
    def self_s(layer: str) -> float:
        return table.get(layer, {}).get("self_s", 0.0)

    def count(names: Iterable[str]) -> int:
        names = set(names)
        return sum(1 for r in records if r.name in names)

    def attr_sum(name: str, attr: str) -> int:
        return int(sum(r.attrs.get(attr, 0) for r in records if r.name == name))

    timed_samples = attr_sum("timed.run", "samples")
    timed_s = self_s("timed.run")
    attributed = sum(row["self_s"] for name, row in table.items() if name != "unattributed")
    out = {
        "tm.fit_s": self_s("tm.fit"),
        "tm.fits": count(LAYER_CALL_SPAN["tm.fit"]),
        "synth.map_s": self_s("synth.map"),
        "synth.maps": count(LAYER_CALL_SPAN["synth.map"]),
        "program.compile_s": self_s("program.compile"),
        "program.compiles": count(LAYER_CALL_SPAN["program.compile"]),
        "kernels.build_s": self_s("kernels.build"),
        "kernels.builds": count(LAYER_CALL_SPAN["kernels.build"]),
        "backend.run_s": self_s("backend.run"),
        "backend.samples": attr_sum("bitpack.pack", "samples") + attr_sum("batch.pack", "samples"),
        "timed.run_s": timed_s,
        "timed.samples": timed_samples,
        "timed.samples_per_s": timed_samples / timed_s if timed_s > 0 else 0.0,
        "measure.decode_s": self_s("measure.decode"),
        "unattributed_share": max(0.0, 1.0 - attributed / wall_s) if wall_s > 0 else 0.0,
    }
    return out


def format_ledger(table: Dict[str, Dict[str, float]], wall_s: float) -> List[str]:
    """Render a :func:`ledger` table as aligned report lines, largest first."""
    lines = [f"  {'layer':<22} {'spans':>8} {'self s':>10} {'share':>7}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"  {name:<22} {int(row['spans']):>8} {row['self_s']:>10.4f} {share:>7.1%}"
        )
    lines.append(f"  {'wall':<22} {'':>8} {wall_s:>10.4f}")
    return lines


def merge_tables(tables: Sequence[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Per-layer medians over several repetitions' ledgers."""
    names = sorted({name for table in tables for name in table})
    return {
        name: {
            key: median([t.get(name, {}).get(key, 0.0) for t in tables])
            for key in ("self_s", "spans")
        }
        for name in names
    }


def with_unentered_layers(values: Dict[str, float]) -> Dict[str, float]:
    """*values* plus a 0 for every per-layer metric of a layer never entered."""
    return {name: values.get(name, 0.0) for name, _ in PER_LAYER}


def median_metrics(per_rep: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Key-wise median over repetitions."""
    return {key: median([rep[key] for rep in per_rep]) for key in per_rep[0]}


# --------------------------------------------------------------------------
# Result assembly and printing
# --------------------------------------------------------------------------


def metric_block(values: Dict[str, float], spec: Sequence[Tuple[str, str]]) -> Dict[str, Dict]:
    """The ``metrics`` object of the result line, in declaration order."""
    missing = [name for name, _ in spec if name not in values]
    if missing:
        raise KeyError(f"workload did not produce metrics {missing}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in spec}


def emit(workload: str, trace: bool, checker: Checker, values: Dict[str, float],
         report: List[str]) -> int:
    """Print the report and the result line, write the report file; exit code."""
    spec = PER_LAYER if trace else END_TO_END
    lines = [f"== {workload} ({'traced' if trace else 'untraced'}) =="]
    lines.extend(report)
    metrics = metric_block(values, spec)
    correct = checker.correct
    for name, entry in metrics.items():
        lines.append(f"  {name:<24} {entry['value']:>14.6g} {entry['unit']}")
    lines.append(f"  checked {checker.attempted} outputs, {checker.failed} failed")
    for message in checker.messages:
        lines.append(f"  MISMATCH {message}")
    result = {
        "correct": correct,
        "attempted": int(checker.attempted),
        "failed": int(checker.failed),
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-{'traced' if trace else 'untraced'}"
    (OUT_DIR / f"{stem}.txt").write_text("\n".join(lines) + "\n")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if correct else 1
