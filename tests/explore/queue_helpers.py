"""Shared fixtures for the work-queue and fault-injection suites.

Lives in its own module (not conftest) because forked worker processes
import these callables by reference: under the ``fork`` start method a
``multiprocessing.Process`` target needs no pickling, so tests can hand
workers in-process fakes — but keeping them here, at module level, also
works under ``spawn`` for the helpers that go through ``worker_main``.

``fake_evaluate`` is a *deterministic* stand-in for the real evaluator: a
pure function of the spec, so byte-identity assertions (same store
entries, same fronts) hold across any worker count, shard layout, claim
order, crash or resume — exactly the property the real evaluator has,
minus the training time.
"""

from __future__ import annotations

import hashlib
import json
import time

from repro.explore import DesignPoint, EvaluationSettings, ResultStore, named_grid
from repro.explore.queue import WorkQueue

#: Smallest settings the real evaluator accepts — keeps the handful of
#: real-evaluator tests around ~30 ms per design point.
FAST_SETTINGS = EvaluationSettings(
    num_features=2, train_samples=12, epochs=1, operands=4,
    timing_operands=2, seed=7,
)


def smoke_specs(count):
    """The first *count* points of the smoke grid, in expansion order."""
    return list(named_grid("smoke").expand().points[:count])


def _spec_scalar(spec, salt):
    """A deterministic float in (0, 1) derived from the spec label."""
    digest = hashlib.sha256(f"{salt}:{spec.label()}".encode()).digest()
    return int.from_bytes(digest[:4], "big") / 2**32


def fake_evaluate(spec, settings, backend, timing_backend, delay=0.0):
    """Deterministic evaluator stand-in: pure function of the spec.

    *delay* (seconds) widens the in-flight window for kill and race tests.
    """
    if delay:
        time.sleep(delay)
    return DesignPoint(
        spec=spec,
        backend=backend,
        vdd=spec.vdd if spec.vdd is not None else 1.2,
        num_features=settings.num_features,
        accuracy=round(0.5 + 0.5 * _spec_scalar(spec, "acc"), 6),
        hardware_correctness=1.0,
        mean_latency_ps=round(400 + 400 * _spec_scalar(spec, "lat"), 3),
        p95_latency_ps=round(500 + 400 * _spec_scalar(spec, "p95"), 3),
        max_latency_ps=round(600 + 400 * _spec_scalar(spec, "max"), 3),
        energy_per_inference_fj=round(100 + 300 * _spec_scalar(spec, "en"), 3),
        area_um2=round(300 + 500 * _spec_scalar(spec, "area"), 3),
        sequential_area_um2=128.0,
        leakage_nw=8.2,
        cell_count=int(100 + 100 * _spec_scalar(spec, "cells")),
        throughput_mops=round(900 + 300 * _spec_scalar(spec, "thr"), 3),
        timed_operands=settings.timing_operands,
    )


def slow_fake_evaluate(spec, settings, backend, timing_backend):
    """``fake_evaluate`` with a wide in-flight window for SIGKILL tests."""
    return fake_evaluate(spec, settings, backend, timing_backend, delay=0.2)


def race_loader(store_dir, owner, done_queue):
    """Process target: resolve task 0 via ``load_or_compute``, report back.

    Used by the concurrency-stress test — two of these race the same key;
    the lease must serialize them into one computation.
    """
    queue = WorkQueue(store_dir, owner=owner, lease_ttl=30.0)
    store = ResultStore(store_dir)
    task = queue.tasks()[0]
    manifest = queue.manifest()
    settings = EvaluationSettings(**manifest["settings"])

    def compute(spec):
        return fake_evaluate(
            spec, settings, manifest["backend"], manifest["timing_backend"],
            delay=0.25,
        )

    try:
        point, computed = queue.load_or_compute(
            task, compute, store, timeout=30.0
        )
        payload = json.dumps(point.to_dict(), sort_keys=True)
        done_queue.put({
            "ok": True,
            "owner": owner,
            "computed": computed,
            "digest": hashlib.sha256(payload.encode()).hexdigest(),
        })
    except Exception as err:  # pragma: no cover - surfaced as a test failure
        done_queue.put({"ok": False, "owner": owner, "error": repr(err)})


def worker_process(store_dir, owner, lease_ttl=1.0, shard=None,
                   heartbeat_interval=None, done_queue=None):
    """Process target: one ``DseWorker`` over the slow fake evaluator.

    The kill tests SIGKILL one of these mid-evaluation; survivors reclaim
    its lease after *lease_ttl* and finish the grid.
    """
    from repro.explore.queue import DseWorker

    report = DseWorker(
        store_dir=store_dir, owner=owner, lease_ttl=lease_ttl, shard=shard,
        heartbeat_interval=heartbeat_interval, evaluator=slow_fake_evaluate,
        poll_interval=0.02,
    ).run()
    if done_queue is not None:
        done_queue.put(report.to_dict())
