"""Reusable compiled-state sessions for repeated small batches.

The vectorized backends are already *compile-once, run-many*: constructing
:class:`~repro.sim.backends.batch.BatchBackend` or
:class:`~repro.sim.backends.bitpack.BitpackBackend` levelizes the netlist a
single time and every subsequent ``run_arrays`` call reuses that program.
What they do **not** amortize is the stimulus: a serving workload evaluates
the same design thousands of times per second with only a handful of input
nets changing per call (the feature rails), while hundreds of configuration
nets (the clause exclude rails) carry the same values on every call.
Re-broadcasting those constants into per-sample planes on every micro-batch
costs more than the gate evaluation itself once batches shrink to the
64-lane words the serving gateway dispatches.

:class:`BackendSession` closes that gap.  It binds a backend instance to a
fixed scalar assignment for the constant nets, caches the broadcast
``uint8`` planes per batch size (a micro-batching server sees only a few
distinct sizes — the full word and the ragged deadline flushes), and
exposes the same ``run_arrays`` / ``run_timed`` entry points taking only
the *varying* planes.  Results are bit-identical to passing the merged
stimulus to the backend directly (the session tests pin this), so sessions
never change what is measured — only how much per-call work it costs.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.circuits.netlist import Netlist
from repro.obs import metrics as _metrics

from .base import BackendError


class BackendSession:
    """A vectorized backend bound to constant input nets, for repeated calls.

    Parameters
    ----------
    backend:
        A constructed vectorized backend (``"batch"`` or ``"bitpack"`` —
        any object exposing ``run_arrays``; the event backend does not) —
        or a backend *name*, in which case *program* must carry the
        precompiled :class:`~repro.sim.program.CompiledProgram` to execute
        (the serving worker's cache-served construction path).
    constants:
        ``net → scalar value`` assignment applied on every call.  Every net
        must exist in the backend's net table.  Varying planes passed to
        :meth:`run_arrays` / :meth:`run_timed` may not overlap these nets —
        an overlap almost always means the caller bound the wrong set, so
        it raises instead of silently picking a winner.
    program:
        Only with a backend name: the compiled program to instantiate it
        from (``get_backend(name, program=...)``).
    """

    def __init__(
        self,
        backend,
        constants: Optional[Mapping[str, int]] = None,
        program=None,
    ) -> None:
        if isinstance(backend, str):
            from .base import get_backend

            if program is None:
                raise BackendError(
                    "constructing a session from a backend name requires "
                    "program= (a precompiled CompiledProgram)"
                )
            backend = get_backend(backend, program=program)
        elif program is not None:
            raise BackendError(
                "program= is only meaningful with a backend name; the "
                "constructed backend already carries its program"
            )
        if not hasattr(backend, "run_arrays"):
            raise BackendError(
                f"backend {getattr(backend, 'name', backend)!r} has no vectorized "
                "run_arrays entry point; sessions require a batch or bitpack backend"
            )
        self.backend = backend
        table = getattr(backend, "program", None)
        nets = table.nets if table is not None else backend.netlist.nets
        self.constants: Dict[str, int] = dict(constants or {})
        for net, value in self.constants.items():
            if net not in nets:
                raise KeyError(f"constant net {net!r} does not exist in the netlist")
            if value not in (0, 1):
                raise BackendError(
                    f"constant net {net!r} must be Boolean, got {value!r}"
                )
        #: Broadcast plane cache: batch size -> {net: uint8 plane}.
        self._plane_cache: Dict[int, Dict[str, np.ndarray]] = {}
        registry = _metrics.default_registry()
        self._cache_hits = registry.counter(
            "session_plane_cache_hits",
            "BackendSession constant-plane cache hits (per batch size).",
        )
        self._cache_misses = registry.counter(
            "session_plane_cache_misses",
            "BackendSession constant-plane cache misses (plane broadcasts).",
        )

    @property
    def netlist(self) -> Optional[Netlist]:
        """The bound backend's netlist (``None`` for program-built backends)."""
        return self.backend.netlist

    def _merged(
        self,
        varying: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
    ) -> Dict[str, Union[int, np.ndarray]]:
        """Merge cached constant planes with the per-call varying planes."""
        overlap = sorted(set(varying) & set(self.constants))
        if overlap:
            raise BackendError(
                f"varying planes overlap bound constants (e.g. {overlap[:3]}); "
                "rebind the session without these nets instead"
            )
        samples = 1
        for value in varying.values():
            if np.ndim(value) > 0:
                samples = int(np.shape(value)[0])
                break
        cached = self._plane_cache.get(samples)
        if cached is None:
            self._cache_misses.inc()
            cached = {
                net: np.full(samples, int(value), dtype=np.uint8)
                for net, value in self.constants.items()
            }
            self._plane_cache[samples] = cached
        else:
            self._cache_hits.inc()
        merged: Dict[str, Union[int, np.ndarray]] = dict(cached)
        merged.update(varying)
        return merged

    def run_arrays(
        self,
        varying: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
        baseline: Optional[Mapping[str, int]] = None,
        transitions_per_toggle: int = 2,
    ):
        """Functional pass: the backend's ``run_arrays`` over the merged stimulus.

        *varying* carries only the nets that change call to call; the bound
        constants are filled in from the per-batch-size plane cache.  All
        other semantics (baseline activity counting, result type) are the
        bound backend's.
        """
        return self.backend.run_arrays(
            self._merged(varying),
            baseline=baseline,
            transitions_per_toggle=transitions_per_toggle,
        )

    def run_timed(
        self,
        varying: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
        spacer: Mapping[str, int],
        delay_variation: Optional[Dict[str, float]] = None,
    ):
        """Timed pass: the backend's ``run_timed`` over the merged stimulus.

        Returns the backend's
        :class:`~repro.sim.backends.timed.TimedBatchResult` — per-sample
        arrival times and switching energy for full handshake cycles, e.g.
        for per-request latency/energy attribution in the serving gateway.
        """
        return self.backend.run_timed(
            self._merged(varying), spacer, delay_variation=delay_variation
        )
