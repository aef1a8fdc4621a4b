"""Deterministic fault-injection plane: plans, lookup, JSON round trips."""

import pickle

import pytest

from repro.framework import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
)


class TestFaultSpec:
    def test_defaults(self):
        spec = FaultSpec(key="Venus")
        assert spec.kind == "exception"
        assert spec.attempt == 0
        assert spec.at is None

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(key="a", kind="meteor")
        # nothing consumes a corrupted payload any more
        assert "corrupt" not in FAULT_KINDS
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(key="a", kind="corrupt")
        with pytest.raises(ValueError, match="attempt"):
            FaultSpec(key="a", attempt=-1)
        with pytest.raises(ValueError, match="at"):
            FaultSpec(key="a", at=-2)
        with pytest.raises(ValueError, match="delay_s"):
            FaultSpec(key="a", delay_s=-0.5)

    def test_as_dict_round_trips_json(self):
        spec = FaultSpec(key="Earth", kind="crash", attempt=1, at=42)
        plan = FaultPlan(seed=3, faults=(spec,))
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert again.process_faults_for("Earth", 1) == (spec,)


class TestFaultPlan:
    def test_lookup_by_key_and_attempt(self):
        plan = FaultPlan(
            seed=1,
            faults=(
                FaultSpec(key="a", kind="crash", attempt=0, at=5),
                FaultSpec(key="a", kind="exception", attempt=1),
                FaultSpec(key="b", kind="hang", attempt=0, at=0),
            ),
        )
        kinds = lambda key, attempt: [
            f.kind for f in plan.process_faults_for(key, attempt)
        ]
        assert kinds("a", 0) == ["crash"]
        assert kinds("a", 1) == ["exception"]
        assert kinds("a", 2) == []
        assert kinds("b", 0) == ["hang"]
        assert kinds("c", 0) == []

    def test_duplicate_key_attempt_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan(faults=(FaultSpec(key="a"), FaultSpec(key="a")))

    def test_same_plan_same_seed_identical(self):
        """The determinism contract: equal plans replay equal faults."""
        mk = lambda: FaultPlan(
            seed=9, faults=(FaultSpec(key="x", kind="crash", at=7),)
        )
        assert mk() == mk()
        assert mk().to_json() == mk().to_json()
        assert pickle.loads(pickle.dumps(mk())) == mk()


class TestNetFaultSpecs:
    def test_net_kinds_require_a_frame_index(self):
        for kind in ("drop", "delay", "duplicate", "partition"):
            with pytest.raises(ValueError, match="frame index"):
                FaultSpec(key="link:w0", kind=kind)
            FaultSpec(key="link:w0", kind=kind, at=0)  # with at: fine

    def test_span_validated(self):
        with pytest.raises(ValueError, match="span"):
            FaultSpec(key="link:w0", kind="drop", at=0, span=0)

    def test_overlap_same_triple_rejected_differing_at_allowed(self):
        # At most one fault per (key, attempt, at) — even across the
        # process/net kind split — but stacking at different indices on
        # one attempt is the multi-fault contract.
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan(faults=(
                FaultSpec(key="a", kind="crash", attempt=0, at=5),
                FaultSpec(key="a", kind="drop", attempt=0, at=5),
            ))
        plan = FaultPlan(faults=(
            FaultSpec(key="a", kind="crash", attempt=0, at=5),
            FaultSpec(key="a", kind="exception", attempt=0, at=9),
            FaultSpec(key="a", kind="crash", attempt=0),  # at=None startup
        ))
        assert len(plan.process_faults_for("a", 0)) == 3

    def test_process_and_net_lookups_split_by_kind(self):
        plan = FaultPlan(faults=(
            FaultSpec(key="x", kind="crash", attempt=0, at=3),
            FaultSpec(key="x", kind="partition", attempt=0, at=7, span=4),
            FaultSpec(key="x", kind="drop", attempt=1, at=0),
        ))
        # The supervisor plane never sees net kinds...
        assert [f.kind for f in plan.process_faults_for("x", 0)] == ["crash"]
        assert plan.process_faults_for("x", 1) == ()
        # ...and the framing plane never sees process kinds.
        assert [f.kind for f in plan.net_faults_for("x", 0)] == ["partition"]
        assert [f.kind for f in plan.net_faults_for("x", 1)] == ["drop"]

    def test_json_round_trip_preserves_net_fields(self):
        plan = FaultPlan(seed=4, faults=(
            FaultSpec(key="link:w1", kind="partition", attempt=2, at=60,
                      span=100_000),
            FaultSpec(key="link:w1", kind="delay", attempt=2, at=9,
                      delay_s=0.25),
        ))
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        part, delay = again.net_faults_for("link:w1", 2)
        assert (part.span, delay.delay_s) == (100_000, 0.25)
