"""Regenerate the committed reference outputs in ``perfbench/reference/``.

Run from the root of a checkout::

    python3 perfbench/make_reference.py [paper_repro|dse_smoke|serve_open ...]

References come from the slowest, most direct path the repository has:
event timing for every latency (the paper's oracle), the in-process
``jobs=1`` sweep for the design points.  Regenerate only when the program's
*measured behaviour* is meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT_DIR, REFERENCE_DIR, ensure_src  # noqa: E402


def _write(name: str, payload: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def pattern_features(width: int):
    """Every *width*-bit feature vector, in :func:`paper.pattern_index` order."""
    import numpy as np

    codes = np.arange(1 << width)
    return ((codes[:, None] >> np.arange(width)) & 1).astype(np.int8)


def paper_reference() -> dict:
    """Table I, Figure 3 and the per-pattern event latencies of the stream."""
    from repro.analysis import build_mapped_dual_rail, make_dual_rail_environment
    from repro.analysis.experiments import run_figure3, run_table1
    from repro.datapath.datapath import DualRailDatapath

    import paper

    ctx = paper.setup()
    rows, _ = run_table1(ctx.workload, ctx.libraries, timing_backend="event")
    points = run_figure3(ctx.workload, library=ctx.stream_library,
                         operands_per_point=paper.FIGURE3_OPERANDS,
                         timing_backend="event")
    mapped = build_mapped_dual_rail(ctx.workload.config, ctx.stream_library)
    bench = make_dual_rail_environment(mapped)
    results = [
        bench.environment.infer(mapped.datapath.operand_assignments(f, ctx.workload.exclude))
        for f in pattern_features(ctx.workload.config.num_features)
    ]
    return {
        "table1": {f"{r.technology}/{r.design}": asdict(r) for r in rows},
        "figure3": {f"{p.vdd:g}": asdict(p) for p in points},
        "patterns": {
            "t_s_to_v": [r.t_s_to_v for r in results],
            "t_v_to_s": [r.t_v_to_s for r in results],
            "verdict": [DualRailDatapath.decode_verdict(r.one_of_n_outputs) for r in results],
        },
    }


def dse_reference() -> dict:
    """Every smoke-grid design point and the Pareto CSVs, from one jobs=1 sweep.

    One ``run_sweep`` call, so the benchmark's split into several calls is
    checked against it.
    """
    import dse
    from repro.explore import (
        ResultStore,
        SMOKE_SETTINGS,
        front_csv,
        parse_metric_pair,
        run_sweep,
    )

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as store:
        result = run_sweep(dse.smoke_specs(seed=None), settings=SMOKE_SETTINGS, jobs=1,
                           store=ResultStore(store), timing_backend="bitpack")
    points = {p.spec.label(): p.to_dict() for p in result.points}
    fronts = {pair: front_csv(result.points, list(parse_metric_pair(pair)))
              for pair in dse.PARETO_PAIRS}
    return {"points": points, "fronts": fronts}


def serve_reference() -> dict:
    """Verdict and decision of the served model for every feature pattern."""
    from dataclasses import replace

    from repro.analysis import batch_functional_pass, resolve_library
    from repro.datapath.datapath import DualRailDatapath

    import serve

    workload = serve.served_workload()
    patterns = pattern_features(workload.config.num_features)
    datapath = DualRailDatapath(workload.config)
    sweep = batch_functional_pass(
        datapath, datapath.circuit, replace(workload, feature_vectors=patterns),
        resolve_library(None), with_activity=False, backend="batch",
    )
    golden = [workload.model.decision(f) for f in patterns]
    if list(sweep.decisions) != golden:
        raise SystemExit("served datapath disagrees with its Tsetlin-machine model")
    return {"verdict": list(sweep.verdicts), "decision": list(sweep.decisions)}


REFERENCES = {
    "paper_repro": paper_reference,
    "dse_smoke": dse_reference,
    "serve_open": serve_reference,
}


def main(argv) -> int:
    """Regenerate the named references (all of them by default)."""
    ensure_src()
    names = argv or list(REFERENCES)
    for name in names:
        _write(name, REFERENCES[name]())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
