"""The repository benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_repro --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric with its unit; ``--trace 1``
runs the same workload traced and prints the per-layer ledger instead.
Omitting ``--workload`` runs every workload in turn.  The last line of the
output is the JSON result object; the exit code is non-zero when any
output check fails.  See ``perfbench/README.md`` for the workloads, the
metrics and how they are measured.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SetupError, ensure_src  # noqa: E402

WORKLOADS = ("paper_repro", "dse_smoke", "serve_open")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    """Run one workload; returns its exit code."""
    if name == "paper_repro":
        import paper

        return paper.run(seed, seconds, traced)
    if name == "dse_smoke":
        import dse

        return dse.run(seed, seconds, traced)
    import serve

    return serve.run(seed, seconds, traced)


def main(argv=None) -> int:
    """Parse the command line and run the chosen workloads."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ensure_src()
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
