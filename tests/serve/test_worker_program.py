"""Serving-layer integration of the compiled-IR program.

A 2-worker :class:`ProcessPoolClassifier` must compile the served netlist
exactly once (in the parent — trace-verified via the ``backend.compile``
span) and classify bit-identically to the seed path; a :class:`ModelSpec`
can also carry a precompiled program directly, and a program compiled for
a different netlist, library or supply is rejected.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import random_workload
from repro.obs import trace
from repro.serve.worker import (
    InferenceWorker,
    InProcessClassifier,
    ModelSpec,
    ProcessPoolClassifier,
    precompile_program,
)


@pytest.fixture(scope="module")
def workload():
    return random_workload(
        num_features=3, clauses_per_polarity=4, num_operands=6, seed=17
    )


@pytest.fixture(scope="module")
def features(workload):
    return np.asarray(workload.feature_vectors, dtype=np.uint8)


@pytest.fixture(scope="module")
def seed_reply(workload, features):
    return InProcessClassifier(ModelSpec.from_workload(workload)).classify(features)


def test_pool_compiles_exactly_once(workload, features, seed_reply):
    spec = ModelSpec.from_workload(workload)
    with trace.capture() as captured:
        pool = ProcessPoolClassifier(spec, workers=2)
        try:
            replies = [pool.classify(features) for _ in range(3)]
        finally:
            pool.close()
    compiles = [r for r in captured.records if r.name == "backend.compile"]
    assert len(compiles) == 1  # the parent compile; workers get the artifact
    assert pool.spec.program is not None
    for reply in replies:
        assert reply.decisions == seed_reply.decisions
        assert reply.verdicts == seed_reply.verdicts


def test_spec_with_precompiled_program(workload, features, seed_reply):
    program = precompile_program(ModelSpec.from_workload(workload))
    with trace.capture() as captured:
        worker = InferenceWorker(ModelSpec.from_workload(workload, program=program))
        reply = worker.classify(features)
    assert [r for r in captured.records if r.name == "backend.compile"] == []
    assert reply.decisions == seed_reply.decisions


def _foreign_netlist(workload, umc):
    other = random_workload(
        num_features=2, clauses_per_polarity=2, num_operands=2, seed=5
    )
    foreign = precompile_program(ModelSpec.from_workload(other))
    return ModelSpec.from_workload(workload, program=foreign)


def _foreign_library(workload, umc):
    foreign = precompile_program(ModelSpec.from_workload(workload, library=umc))
    return ModelSpec.from_workload(workload, program=foreign)


def _foreign_supply(workload, umc):
    spec = ModelSpec.from_workload(workload, vdd=0.4, attribution=True)
    foreign = precompile_program(replace(spec, vdd=None))
    return replace(spec, program=foreign)


@pytest.mark.parametrize(
    "make_spec, what",
    [
        (_foreign_netlist, "netlist"),
        (_foreign_library, "library"),
        (_foreign_supply, "supply"),
    ],
    ids=["netlist", "library", "supply"],
)
def test_mismatched_program_is_rejected(workload, umc, make_spec, what):
    spec = make_spec(workload, umc)
    with pytest.raises(ValueError, match=f"different {what}"):
        InferenceWorker(spec)
