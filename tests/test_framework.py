"""Tests for the prediction-based framework (§4.1)."""

import threading
import time

import numpy as np
import pytest

from repro.framework import (
    CESNodeService,
    ModelUpdateEngine,
    PredictionService,
    QSSFService,
    ResourceOrchestrator,
    UpdatePolicy,
)
from repro.traces import HeliosTraceGenerator, SynthParams, is_gpu_job


class CountingService(PredictionService):
    """Trivial service for engine/orchestrator mechanics."""

    service_name = "counter"

    def __init__(self):
        self.fit_calls = 0
        self.observed = []

    def fit(self, history):
        self.fit_calls += 1
        self.last_history = history
        return self

    def predict(self, request):
        return len(self.observed)

    def act(self, state):
        return f"act({state})"

    def observe(self, event):
        self.observed.append(event)


class IncrementalService(CountingService):
    """Counting service that also supports the incremental refit path."""

    service_name = "incr"
    supports_incremental = True

    def __init__(self):
        super().__init__()
        self.update_calls = []

    def apply_update(self, new_history):
        self.update_calls.append(new_history)
        return self


class TestModelUpdateEngine:
    def test_register_and_refit_on_time(self):
        eng = ModelUpdateEngine(UpdatePolicy(interval_seconds=100))
        svc = CountingService()
        eng.register(svc, history_builder=list)
        eng.observe("counter", {"x": 1}, now=10.0)
        assert svc.fit_calls == 0
        eng.observe("counter", {"x": 2}, now=150.0)
        assert svc.fit_calls == 1
        assert svc.last_history == [{"x": 1}, {"x": 2}]

    def test_refit_on_buffer_size(self):
        eng = ModelUpdateEngine(UpdatePolicy(interval_seconds=1e9, max_buffered=3))
        svc = CountingService()
        eng.register(svc, list)
        for i in range(3):
            eng.observe("counter", i, now=float(i))
        assert svc.fit_calls == 1

    def test_duplicate_registration(self):
        eng = ModelUpdateEngine()
        eng.register(CountingService(), list)
        with pytest.raises(ValueError):
            eng.register(CountingService(), list)

    def test_unknown_service(self):
        with pytest.raises(KeyError):
            ModelUpdateEngine().refit("nope", 0.0)

    def test_refit_empty_buffer_noop(self):
        eng = ModelUpdateEngine()
        svc = CountingService()
        eng.register(svc, list)
        eng.refit("counter", 5.0)
        assert svc.fit_calls == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            UpdatePolicy(interval_seconds=0)
        with pytest.raises(ValueError):
            UpdatePolicy(max_buffered=0)


class TestIncrementalRefit:
    def test_auto_mode_prefers_incremental_once_fitted(self):
        eng = ModelUpdateEngine(UpdatePolicy(interval_seconds=1e9))
        svc = IncrementalService()
        eng.register(svc, list)
        eng.observe("incr", "a", now=1.0)
        # first refit: no model yet -> scratch, on the full history
        assert eng.refit("incr", now=2.0) == "scratch"
        assert svc.fit_calls == 1 and svc.update_calls == []
        eng.observe("incr", "b", now=3.0)
        eng.observe("incr", "c", now=3.5)
        # second refit: incremental, sees only the new events
        assert eng.refit("incr", now=4.0) == "incremental"
        assert svc.fit_calls == 1
        assert svc.update_calls == [["b", "c"]]
        assert eng.refit_count("incr") == 2
        assert eng.incremental_refit_count("incr") == 1

    def test_update_builder_shapes_the_delta(self):
        """The incremental path uses update_builder (new events only),
        never the scratch builder (which may fold in base history)."""
        eng = ModelUpdateEngine()
        svc, scratch = IncrementalService(), CountingService()
        base = ["h1", "h2"]
        for service in (svc, scratch):
            eng.register(
                service,
                history_builder=lambda rows: base + rows,
                update_builder=lambda rows: rows,
                prefitted=True,
            )
        eng.observe("incr", "a", now=1.0)
        assert eng.refit("incr", now=2.0) == "incremental"
        assert svc.update_calls == [["a"]]  # delta only, no base history
        # A service without the incremental path refits from scratch on
        # the base-folding builder, over every observation.
        eng.observe("counter", "a", now=1.0)
        eng.observe("counter", "b", now=3.0)
        assert eng.refit("counter", now=4.0) == "scratch"
        assert scratch.last_history == ["h1", "h2", "a", "b"]  # scratch: full

    def test_prefitted_service_goes_incremental_immediately(self):
        eng = ModelUpdateEngine()
        svc = IncrementalService()
        eng.register(svc, list, prefitted=True)
        eng.observe("incr", "a", now=1.0)
        assert eng.refit("incr", now=2.0) == "incremental"
        assert svc.fit_calls == 0 and svc.update_calls == [["a"]]

    def test_unsupported_service_falls_back_to_scratch(self):
        eng = ModelUpdateEngine()
        svc = CountingService()
        eng.register(svc, list, prefitted=True)
        eng.observe("counter", "a", now=1.0)
        assert eng.refit("counter", now=2.0) == "scratch"
        assert svc.fit_calls == 1

    def test_default_apply_update_raises(self):
        with pytest.raises(NotImplementedError):
            CountingService().apply_update(["x"])

    def test_refit_clears_pending_only(self):
        eng = ModelUpdateEngine(UpdatePolicy(interval_seconds=1e9, max_buffered=2))
        svc = CountingService()
        eng.register(svc, list)
        eng.observe("counter", 1, now=0.0)
        eng.observe("counter", 2, now=0.0)  # buffer trigger
        assert svc.fit_calls == 1 and eng.pending_count("counter") == 0
        eng.observe("counter", 3, now=0.0)
        assert svc.fit_calls == 1  # pending=1 < max_buffered: no re-trigger
        eng.refit("counter", now=0.0)
        assert svc.last_history == [1, 2, 3]  # history accumulates

    def test_reset_clock(self):
        eng = ModelUpdateEngine(UpdatePolicy(interval_seconds=100))
        svc = CountingService()
        eng.register(svc, list)
        eng.reset_clock(1_000_000.0)
        eng.observe("counter", "a", now=1_000_050.0)
        assert svc.fit_calls == 0  # not overdue relative to the anchor
        eng.observe("counter", "b", now=1_000_150.0)
        assert svc.fit_calls == 1


class TestOrchestrator:
    def test_install_and_decide(self):
        orch = ResourceOrchestrator()
        orch.install(CountingService())
        assert orch.installed == ["counter"]
        assert orch.decide("counter", "queue") == "act(queue)"

    def test_duplicate_install(self):
        orch = ResourceOrchestrator()
        orch.install(CountingService())
        with pytest.raises(ValueError):
            orch.install(CountingService())

    def test_uninstall(self):
        orch = ResourceOrchestrator()
        orch.install(CountingService())
        orch.uninstall("counter")
        assert orch.installed == []
        with pytest.raises(KeyError):
            orch.uninstall("counter")

    def test_unknown_service(self):
        with pytest.raises(KeyError):
            ResourceOrchestrator().decide("ghost", None)

    def test_decide_many_preserves_order(self):
        orch = ResourceOrchestrator()
        orch.install(CountingService())
        states = [f"q{i}" for i in range(5)]
        assert orch.decide_many("counter", states) == [
            f"act(q{i})" for i in range(5)
        ]

    def test_decide_many_empty(self):
        orch = ResourceOrchestrator()
        orch.install(CountingService())
        assert orch.decide_many("counter", []) == []


class TestReplace:
    def test_replace_installs_when_absent(self):
        orch = ResourceOrchestrator()
        svc = CountingService()
        assert orch.replace(svc) is None
        assert orch.installed == ["counter"]

    def test_replace_swaps_and_returns_old(self):
        orch = ResourceOrchestrator()
        old, new = CountingService(), CountingService()
        orch.install(old)
        assert orch.replace(new) is old
        assert orch.service("counter") is new
        assert orch.installed == ["counter"]  # idempotent: still one entry

    def test_replace_is_idempotent(self):
        orch = ResourceOrchestrator()
        svc = CountingService()
        orch.replace(svc)
        assert orch.replace(svc) is svc
        assert orch.installed == ["counter"]

    def test_hot_swap_does_not_race_inflight_decide_many(self):
        """A batch resolved before the swap finishes on the old service;
        batches resolved after use the new one — never a KeyError, never
        a mixed batch."""

        class SlowService(CountingService):
            def __init__(self, tag):
                super().__init__()
                self.tag = tag

            def act(self, state):
                time.sleep(0.002)
                return self.tag

        orch = ResourceOrchestrator()
        orch.install(SlowService("old"))
        results = []

        def dispatch():
            results.append(orch.decide_many("counter", list(range(8))))

        t = threading.Thread(target=dispatch)
        t.start()
        time.sleep(0.004)  # land mid-batch
        orch.replace(SlowService("new"))
        t.join()
        dispatch()
        assert len(set(results[0])) == 1  # in-flight batch: one service only
        assert results[1] == ["new"] * 8  # post-swap batch: the new model


@pytest.fixture(scope="module")
def small_history():
    gen = HeliosTraceGenerator(SynthParams(months=1, scale=0.05, seed=13))
    trace = gen.generate_cluster("Venus")
    return trace.filter(is_gpu_job(trace))


class TestQSSFService:
    def test_fit_predict_act(self, small_history):
        svc = QSSFService(lam=1.0).fit(small_history)
        head = small_history.head(20)
        pred = svc.predict(head)
        assert pred.shape == (20,)
        ordered = svc.act(head)
        got = svc.predict(ordered)
        assert np.all(np.diff(got) >= -1e-9)  # sorted ascending

    def test_unfitted(self, small_history):
        with pytest.raises(RuntimeError):
            QSSFService().predict(small_history.head(1))

    def test_observe(self, small_history):
        svc = QSSFService(lam=1.0).fit(small_history)
        svc.observe({"user": "ux", "name": "j_1", "gpu_num": 2, "duration": 123.0})
        assert svc.scheduler.rolling.estimate("ux", "j_2", 2) == pytest.approx(123.0)


class TestCESNodeService:
    def _series(self, n=2500):
        t = np.arange(n)
        return np.round(40 + 10 * np.sin(2 * np.pi * t / 144.0))

    def test_fit_predict_act(self):
        svc = CESNodeService().fit(self._series())
        demand = self._series(600)
        pred = svc.predict(demand)
        assert pred.shape == demand.shape
        outcome = svc.act((demand, 64))
        assert outcome.total_nodes == 64
        assert np.all(outcome.active >= outcome.demand)

    def test_unfitted(self):
        with pytest.raises(RuntimeError):
            CESNodeService().predict(np.zeros(10))

    def test_observe_advances_forecaster_between_refits(self):
        svc = CESNodeService(update_every=8).fit(self._series())
        before = svc.forecaster._train_end
        for v in self._series(300)[:7]:
            svc.observe(v)
        assert svc.updates_applied == 0  # still buffering
        svc.observe(41.0)  # 8th sample triggers the incremental extend
        assert svc.updates_applied == 1
        assert svc.forecaster._train_end > before
        assert len(svc.history) == 2500 + 8

    def test_apply_update_flushes_pending_without_double_count(self):
        svc = CESNodeService(update_every=1_000).fit(self._series())
        samples = [40.0, 41.0, 42.0]
        for v in samples:
            svc.observe(v)
        # the engine hands back the same samples it routed through
        # observe(); they must not be ingested twice
        svc.apply_update(np.asarray(samples))
        assert len(svc.history) == 2500 + 3
        assert svc.updates_applied == 1

    def test_apply_update_never_ingests_argument(self):
        """Regression: a refit landing right after an update_every flush
        (empty pending) must not re-ingest the engine-built delta —
        that silently corrupted the demand series."""
        svc = CESNodeService(update_every=4).fit(self._series())
        samples = [40.0, 41.0, 42.0, 43.0]
        for v in samples:
            svc.observe(v)  # 4th sample auto-flushes: pending now empty
        assert svc.updates_applied == 1
        svc.apply_update(np.asarray(samples))  # engine refit, same delta
        assert len(svc.history) == 2500 + 4  # no duplication
        assert svc.updates_applied == 1  # nothing pending: no-op

    def test_apply_update_requires_fit(self):
        with pytest.raises(RuntimeError):
            CESNodeService().apply_update(np.zeros(3))

    def test_update_every_validation(self):
        with pytest.raises(ValueError):
            CESNodeService(update_every=0)
