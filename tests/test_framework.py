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
    """Trivial service for engine/orchestrator mechanics: its fit history
    is ``base``, and a scratch refit trains on ``base`` plus every
    observation."""

    service_name = "counter"

    def __init__(self, base=()):
        self.base = list(base)
        self.fit_calls = 0
        self.observed = []

    def fit(self, history):
        self.fit_calls += 1
        self.last_history = history
        return self

    def refit(self):
        return self.fit(self.base + self.observed)

    def predict(self, request):
        return len(self.observed)

    def act(self, state):
        return f"act({state})"

    def observe(self, event):
        self.observed.append(event)


class IncrementalService(CountingService):
    """Counting service that also supports the incremental refit path:
    an update consumes the observations no refit has seen yet."""

    service_name = "incr"
    supports_incremental = True

    def __init__(self, base=()):
        super().__init__(base)
        self.update_calls = []
        self.consumed = 0

    def refit(self):
        self.consumed = len(self.observed)
        return super().refit()

    def apply_update(self):
        self.update_calls.append(self.observed[self.consumed:])
        self.consumed = len(self.observed)
        return self


class TestModelUpdateEngine:
    def test_register_and_refit_on_time(self):
        eng = ModelUpdateEngine(UpdatePolicy(interval_seconds=100))
        svc = CountingService()
        eng.register(svc)
        eng.observe("counter", {"x": 1}, now=10.0)
        assert svc.fit_calls == 0
        eng.observe("counter", {"x": 2}, now=150.0)
        assert svc.fit_calls == 1
        assert svc.last_history == [{"x": 1}, {"x": 2}]

    def test_refit_on_buffer_size(self):
        eng = ModelUpdateEngine(UpdatePolicy(interval_seconds=1e9, max_buffered=3))
        svc = CountingService()
        eng.register(svc)
        for i in range(3):
            eng.observe("counter", i, now=float(i))
        assert svc.fit_calls == 1

    def test_duplicate_registration(self):
        eng = ModelUpdateEngine()
        eng.register(CountingService())
        with pytest.raises(ValueError):
            eng.register(CountingService())

    def test_unknown_service(self):
        with pytest.raises(KeyError):
            ModelUpdateEngine().refit("nope", 0.0)

    def test_register_and_swap_install_in_the_orchestrator(self):
        """The engine's orchestrator is the one registry: ``register``
        installs a service there and ``swap`` replaces it, keeping the
        refit clock."""
        eng = ModelUpdateEngine()
        old, new = CountingService(), CountingService()
        eng.register(old)
        assert eng.orchestrator.service("counter") is old
        eng.observe("counter", "a", now=1.0)
        eng.swap("counter", new)
        assert eng.orchestrator.service("counter") is new
        assert eng.pending_count("counter") == 1
        eng.observe("counter", "b", now=2.0)
        assert old.observed == ["a"] and new.observed == ["b"]
        assert eng.refit("counter", now=3.0) == "scratch"
        assert old.fit_calls == 0 and new.last_history == ["b"]
        with pytest.raises(ValueError):
            eng.swap("counter", IncrementalService())

    def test_refit_empty_buffer_noop(self):
        eng = ModelUpdateEngine()
        svc = CountingService()
        eng.register(svc)
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
        eng.register(svc)
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

    def test_incremental_consumes_new_rows_scratch_trains_on_all(self):
        """The incremental path consumes only the observations since the
        last refresh, never the fit history; the scratch path trains on
        the fit history plus every observation."""
        eng = ModelUpdateEngine()
        base = ["h1", "h2"]
        svc, scratch = IncrementalService(base), CountingService(base)
        for service in (svc, scratch):
            eng.register(service, prefitted=True)
        eng.observe("incr", "a", now=1.0)
        assert eng.refit("incr", now=2.0) == "incremental"
        eng.observe("incr", "b", now=3.0)
        assert eng.refit("incr", now=4.0) == "incremental"
        assert svc.update_calls == [["a"], ["b"]]  # new rows only, no base
        assert svc.fit_calls == 0
        # A service without the incremental path refits from scratch on
        # its fit history plus every observation.
        eng.observe("counter", "a", now=1.0)
        eng.observe("counter", "b", now=3.0)
        assert eng.refit("counter", now=4.0) == "scratch"
        assert scratch.last_history == ["h1", "h2", "a", "b"]  # scratch: full
        eng.observe("counter", "c", now=5.0)
        assert eng.refit("counter", now=6.0) == "scratch"
        assert scratch.last_history == ["h1", "h2", "a", "b", "c"]

    def test_prefitted_service_goes_incremental_immediately(self):
        eng = ModelUpdateEngine()
        svc = IncrementalService()
        eng.register(svc, prefitted=True)
        eng.observe("incr", "a", now=1.0)
        assert eng.refit("incr", now=2.0) == "incremental"
        assert svc.fit_calls == 0 and svc.update_calls == [["a"]]

    def test_unsupported_service_falls_back_to_scratch(self):
        eng = ModelUpdateEngine()
        svc = CountingService()
        eng.register(svc, prefitted=True)
        eng.observe("counter", "a", now=1.0)
        assert eng.refit("counter", now=2.0) == "scratch"
        assert svc.fit_calls == 1

    def test_default_apply_update_raises(self):
        with pytest.raises(NotImplementedError):
            CountingService().apply_update()

    def test_refit_clears_pending_only(self):
        eng = ModelUpdateEngine(UpdatePolicy(interval_seconds=1e9, max_buffered=2))
        svc = CountingService()
        eng.register(svc)
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
        eng.register(svc)
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
        # the samples arrived through observe(); the flush must not
        # ingest them twice
        svc.apply_update()
        assert len(svc.history) == 2500 + 3
        assert np.array_equal(svc.history[-3:], samples)
        assert svc.updates_applied == 1

    def test_apply_update_after_flush_does_not_double_count(self):
        """Regression: a refit landing right after an update_every flush
        (empty pending) must not re-ingest the flushed samples — that
        silently corrupted the demand series."""
        svc = CESNodeService(update_every=4).fit(self._series())
        samples = [40.0, 41.0, 42.0, 43.0]
        for v in samples:
            svc.observe(v)  # 4th sample auto-flushes: pending now empty
        assert svc.updates_applied == 1
        svc.apply_update()  # engine refit after the flush
        assert len(svc.history) == 2500 + 4  # no duplication
        assert svc.updates_applied == 1  # nothing pending: no-op

    def test_apply_update_requires_fit(self):
        with pytest.raises(RuntimeError):
            CESNodeService().apply_update()

    def test_refit_trains_on_the_whole_series(self):
        svc = CESNodeService(update_every=1_000).fit(self._series())
        before = svc.forecaster
        for v in (40.0, 41.0):
            svc.observe(v)
        svc.refit()
        assert svc.forecaster is not before  # a fresh fit, not an extend
        assert len(svc.history) == 2500 + 2
        assert svc.forecaster._train_end == len(svc.history) - svc.horizon_bins

    def test_update_every_validation(self):
        with pytest.raises(ValueError):
            CESNodeService(update_every=0)
