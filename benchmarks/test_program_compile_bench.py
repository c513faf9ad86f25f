"""Benchmark: cold compile of the paper-scale datapath program.

Records the regression-tracking figure for the compiled IR:

* ``program_compile_ms`` — best-of-three wall-clock of one cold
  ``compile_program`` of the paper-scale datapath (levelize + dispatch
  validation + per-cell STA resolution).

Every compile of the same netlist must also be the *same artifact*, bit for
bit, so the equality assertion here doubles as the benchmark-level half of
the determinism contract that lets a parent ship one program to its
workers.
"""

from __future__ import annotations

import time

from repro.analysis import random_workload
from repro.datapath.datapath import DualRailDatapath
from repro.sim.program import compile_program

#: Best-of-N rounds; smooths scheduler noise on loaded CI runners.
ROUNDS = 3


def test_program_compile_time(benchmark, umc, bench_records):
    workload = random_workload(
        num_features=4, clauses_per_polarity=8, num_operands=2, seed=5
    )
    netlist = DualRailDatapath(workload.config).circuit.netlist

    def compile_once():
        return compile_program(netlist, umc)

    start = time.perf_counter()
    first = benchmark.pedantic(compile_once, rounds=1, iterations=1)
    compile_s = time.perf_counter() - start
    program = first
    # benchmark.pedantic can only run once per test; take further rounds raw.
    for _ in range(ROUNDS - 1):
        start = time.perf_counter()
        program = compile_once()
        compile_s = min(compile_s, time.perf_counter() - start)

    print(f"\nProgram compile: {compile_s * 1e3:.2f} ms ({len(program.ops)} ops)")
    bench_records["program_compile_ms"] = compile_s * 1e3

    assert program == first
    assert program.program_hash == first.program_hash
