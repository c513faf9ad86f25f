"""Workload ``dse_smoke``: the 72-point smoke-grid sweep with the timed engine.

Every repetition is a fresh interpreter (a CLI user pays training, mapping
and compilation on every sweep, because the evaluator's memos are
per process).  The child sweeps the ``smoke`` grid with
``timing_backend="bitpack"``, ``jobs=1``, into a fresh ``ResultStore``, and
extracts the Pareto fronts the exploration CLI writes by default.

The seed permutes the order the 72 design points are listed in: each point
is a pure function of its spec, so the outputs (and the reference) do not
depend on the order, while the order in which designs share trained models
and the cold-memo sequence do.

Run as a child: ``python3 perfbench/dse.py --child OUT.json --seed N
[--trace 0|1] [--points N]``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT_DIR,
    Checker,
    calibration_s,
    emit,
    ensure_src,
    format_ledger,
    host_scale,
    host_timed,
    layer_metrics,
    ledger,
    load_reference,
    median,
    median_metrics,
    merge_tables,
    peak_rss_mb,
    repeat,
    with_unentered_layers,
)

NAME = "dse_smoke"
#: The exploration CLI's default Pareto pairs (examples/explore_design_space.py).
PARETO_PAIRS = ("accuracy,energy", "accuracy,latency", "latency,area")
CHILD_TIMEOUT_S = 170
#: Design points per ``run_sweep`` call (8 calls for the 72-point grid).
SWEEP_CALL_POINTS = 9


def smoke_specs(seed: Optional[int], points: Optional[int] = None) -> List[Any]:
    """The smoke grid's design points, in a seeded order (``None`` = grid order)."""
    import numpy as np
    from repro.explore import SMOKE_GRID

    specs = list(SMOKE_GRID.expand().points)
    if seed is not None:
        order = np.random.default_rng(seed).permutation(len(specs))
        specs = [specs[i] for i in order]
    return specs if points is None else specs[:points]


def sweep_outputs(specs: List[Any], store_dir: str,
                  calibrated: bool) -> Tuple[Dict[str, Any], Dict[str, str], float, float]:
    """Sweep *specs* into a fresh store.

    Returns the points by label, the Pareto CSVs, and the sweep's wall
    time and reference-host time (:func:`common.host_timed`).  The sweep
    is made as ``run_sweep`` calls of :data:`SWEEP_CALL_POINTS` points into
    the one store: ``run_sweep`` evaluates every spec on its own and the
    evaluator's memos are per process, so later calls reuse what earlier
    ones trained and mapped, as within one call.
    """
    from repro.explore import (
        ResultStore,
        SMOKE_SETTINGS,
        front_csv,
        parse_metric_pair,
        run_sweep,
    )
    from repro.obs import trace

    store = ResultStore(store_dir)

    def sweep(part: List[Any]) -> List[Any]:
        with trace.span("bench.sweep"):
            return run_sweep(part, settings=SMOKE_SETTINGS, jobs=1, store=store,
                             timing_backend="bitpack").points

    def pareto() -> Dict[str, str]:
        with trace.span("bench.fronts"):
            return {pair: front_csv(found, list(parse_metric_pair(pair)))
                    for pair in PARETO_PAIRS}

    found: List[Any] = []
    wall = norm = 0.0
    for at in range(0, len(specs), SWEEP_CALL_POINTS):
        part = specs[at:at + SWEEP_CALL_POINTS]
        points, seconds, scaled = host_timed(lambda: sweep(part), calibrated)
        found.extend(points)
        wall += seconds
        norm += scaled
    fronts, seconds, scaled = host_timed(pareto, calibrated)
    return ({p.spec.label(): p.to_dict() for p in found}, fronts,
            wall + seconds, norm + scaled)


def _store_replay(points: Dict[str, Any], directory: str) -> float:
    """Direct timing of the store layer: a sweep's lookups and writes, replayed."""
    from repro.explore import (
        DesignPoint,
        ResultStore,
        SMOKE_SETTINGS,
        library_fingerprint,
        point_key,
    )
    from repro.circuits.library import default_libraries

    store = ResultStore(directory)
    records = [DesignPoint.from_dict(p) for p in points.values()]
    t0 = time.perf_counter()
    libraries = default_libraries()
    digests = {name: library_fingerprint(lib) for name, lib in libraries.items()}
    for point in records:
        key = point_key(point.spec, SMOKE_SETTINGS, libraries[point.spec.library],
                        point.backend, library_digest=digests[point.spec.library],
                        timing_backend=point.timing_backend)
        store.get(key)
        store.put(key, point)
    return time.perf_counter() - t0


def child(out_path: str, seed: int, traced: bool, points: Optional[int]) -> int:
    """One repetition in this fresh process; writes its outputs to *out_path*."""
    ensure_src()
    from repro.datapath.styles import is_dual_rail
    from repro.obs import trace

    OUT_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="dse-", dir=OUT_DIR)
    try:
        if traced:
            trace.reset()
            trace.enable()
        with trace.span("bench.rep"):
            specs = smoke_specs(seed, points)
            ready = time.perf_counter()
            # A traced child runs no calibration loop inside its trace.
            ready_cal = None if traced else calibration_s()
            done, fronts, wall, norm = sweep_outputs(specs, str(Path(work) / "store"),
                                                     not traced)
        payload: Dict[str, Any] = {
            "ready": ready, "ready_cal": ready_cal, "wall_s": wall, "norm_s": norm,
            "points": done, "fronts": fronts,
        }
        if traced:
            trace.disable()
            records = trace.drain()
            rep_wall = next(r for r in records if r.name == "bench.rep").duration_us / 1e6
            table = ledger(records)
            values = layer_metrics(records, table, rep_wall)
            pairs = {(s.dataset, s.clauses_per_polarity, s.booleanizer_levels,
                      s.style, s.library) for s in specs if is_dual_rail(s.style)}
            values["synth.map_reuse"] = (
                len(pairs) / values["synth.maps"] if values["synth.maps"] else 0.0
            )
            point_spans = [r.duration_us / 1e6 for r in records if r.name == "dse.point"]
            values["explore.point_s"] = median(point_spans) if point_spans else 0.0
            values["explore.store_s"] = _store_replay(done, str(Path(work) / "replay"))
            payload["per_layer"] = values
            payload["table"] = table
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(out_path).write_text(json.dumps(payload))
    return 0


def spawn(seed: int, traced: bool, points: Optional[int] = None) -> Dict[str, Any]:
    """Run one child repetition; returns its payload plus ``setup_s``.

    ``setup_s`` and ``norm_s`` are reference-host seconds: set-up is scaled
    by the calibration loops run right before the spawn and right after
    the child is ready, the sweep by the child's loops around it.  A
    traced child calibrates nothing; its ``setup_s`` is a wall time.
    """
    OUT_DIR.mkdir(exist_ok=True)
    fd, out_path = tempfile.mkstemp(prefix="dse-", suffix=".json", dir=OUT_DIR)
    os.close(fd)
    try:
        command = [sys.executable, str(Path(__file__).resolve()), "--child", out_path,
                   "--seed", str(seed), "--trace", str(int(traced))]
        if points is not None:
            command += ["--points", str(points)]
        spawn_cal = None if traced else calibration_s()
        t0 = time.perf_counter()
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"dse child failed ({proc.returncode}):\n{proc.stderr}")
        payload = json.loads(Path(out_path).read_text())
    finally:
        Path(out_path).unlink(missing_ok=True)
    payload["setup_s"] = payload["ready"] - t0
    if not traced:
        payload["setup_s"] *= host_scale(spawn_cal, payload["ready_cal"])
    return payload


def check(payload: Dict[str, Any], reference: Dict[str, Any], checker: Checker) -> None:
    """Every design point and every Pareto CSV against the reference."""
    for label, point in payload["points"].items():
        expected = reference["points"].get(label)
        if expected is None:
            checker.miss(f"points: unexpected design {label}")
        else:
            checker.check(point, expected, f"points[{label}]")
    if len(payload["points"]) == len(reference["points"]):
        for pair, text in payload["fronts"].items():
            checker.check(text.splitlines(), reference["fronts"][pair].splitlines(),
                          f"fronts[{pair}]")


def run(seed: int, seconds: float, traced: bool, points: Optional[int] = None,
        reference: Dict[str, Any] = None) -> int:
    """Measure the workload; print the report and result line; exit code."""
    reference = load_reference(NAME) if reference is None else reference
    checker = Checker()
    report: List[str] = []
    if not traced:
        reps = repeat(lambda _: spawn(seed, False, points), seconds)
        for payload in reps:
            check(payload, reference, checker)
        sweep_walls = [p["norm_s"] for p in reps]
        count = len(reps[0]["points"])
        values = {
            "wall_s": median(sweep_walls),
            "setup_s": median([p["setup_s"] for p in reps]),
            "peak_rss_mb": peak_rss_mb(children=True),
            "ops_per_s": median([count / w for w in sweep_walls]),
        }
        report.append(f"  repetitions {len(reps)}, {count} design points per sweep")
        report.append("  sweep wall s: " + ", ".join(f"{p['wall_s']:.3f}" for p in reps))
        report.append("  reference-host s: " + ", ".join(f"{w:.3f}" for w in sweep_walls))
        return emit(NAME, False, checker, values, report)

    reps = repeat(lambda index: spawn(seed, index % 2 == 1, points), seconds, min_reps=2)
    for payload in reps:
        check(payload, reference, checker)
    plain = [p["wall_s"] for p in reps if "per_layer" not in p]
    traced_reps = [p for p in reps if "per_layer" in p]
    values = median_metrics([p["per_layer"] for p in traced_reps])
    values["obs.trace_overhead_pct"] = (
        median([p["wall_s"] for p in traced_reps]) / median(plain) - 1.0
    ) * 100.0
    merged = merge_tables([p["table"] for p in traced_reps])
    report.append(f"  traced repetitions {len(traced_reps)}, untraced {len(plain)}")
    report.extend(format_ledger(merged, sum(r["self_s"] for r in merged.values())))
    return emit(NAME, True, checker, with_unentered_layers(values), report)


def main(argv=None) -> int:
    """Child entry point: one repetition, outputs to the ``--child`` file."""
    parser = argparse.ArgumentParser(description="one dse_smoke repetition")
    parser.add_argument("--child", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--points", type=int, default=None)
    args = parser.parse_args(argv)
    return child(args.child, args.seed, bool(args.trace), args.points)


if __name__ == "__main__":
    sys.exit(main())
