"""Self-test of the benchmark at toy sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks, for every workload:

1. the metric names and units printed untraced and traced are exactly the
   ``end_to_end`` and ``per_layer`` entries of ``BENCHMARK.json``, and the
   untouched reference passes;
2. the output check fails (result ``correct: false``, exit code 1) against
   a deliberately perturbed reference, and still passes when the
   perturbation is inside the float tolerance.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, RTOL, ensure_src, load_reference  # noqa: E402

SEED = 11
SECONDS = 0.1


def _capture(call: Callable[[], int]) -> Tuple[int, Dict[str, Any]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = call()
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def _runners() -> Dict[str, Callable[[bool, Any], int]]:
    import dse
    import paper
    import serve

    toy_paper = paper.Sizes(stream_operands=256, stream_chunk=128, voltages=(0.5, 1.2),
                            oracle_prefix=4, setups=1)
    toy_serve = serve.Sizes(phase_s=0.2, closed_requests=256, setups=1)
    return {
        "paper_repro": lambda traced, ref: paper.run(SEED, SECONDS, traced, toy_paper, ref),
        "dse_smoke": lambda traced, ref: dse.run(SEED, SECONDS, traced, 3, ref),
        "serve_open": lambda traced, ref: serve.run(SEED, SECONDS, traced, toy_serve, ref),
    }


def _scale_floats(node: Any, factor: float) -> Any:
    """A copy of *node* with every float multiplied by *factor*."""
    if isinstance(node, dict):
        return {k: _scale_floats(v, factor) for k, v in node.items()}
    if isinstance(node, list):
        return [_scale_floats(v, factor) for v in node]
    if isinstance(node, float):
        return node * factor
    return node


def _perturbed(name: str, reference: Dict[str, Any], factor: float) -> Dict[str, Any]:
    """The reference with its checked values moved by *factor* (or flipped)."""
    ref = copy.deepcopy(reference)
    if name == "paper_repro":
        ref["table1"] = _scale_floats(ref["table1"], factor)
        ref["patterns"] = _scale_floats(ref["patterns"], factor)
    elif name == "dse_smoke":
        ref["points"] = _scale_floats(ref["points"], factor)
    elif abs(factor - 1.0) > RTOL:  # serve_open holds no floats: flip decisions
        ref["decision"] = [1 - d for d in ref["decision"]]
    return ref


def main() -> int:
    """Run every self-test check; 0 when all hold."""
    ensure_src()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures: List[str] = []
    for name, run in _runners().items():
        reference = load_reference(name)
        for traced in (False, True):
            code, result = _capture(lambda: run(traced, reference))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[traced]:
                failures.append(f"{name} trace={int(traced)}: metrics {got} "
                                f"!= BENCHMARK.json {expected[traced]}")
            if code != 0 or not result["correct"]:
                failures.append(f"{name} trace={int(traced)}: failed its own reference")
        code, result = _capture(lambda: run(False, _perturbed(name, reference, 1 + 1e-6)))
        if code == 0 or result["correct"]:
            failures.append(f"{name}: a perturbed reference passed the output check")
        code, result = _capture(lambda: run(False, _perturbed(name, reference, 1 + 1e-12)))
        if code != 0 or not result["correct"]:
            failures.append(f"{name}: a perturbation inside the tolerance failed the check")
        print(f"selftest {name}: done", file=sys.stderr)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest: " + ("FAILED" if failures else "ok"), file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
