"""repro.obs — zero-dependency tracing + metrics for the whole stack.

One process-global recorder (disabled by default; instrumented call
sites cost ~a branch) collects:

* **spans** — nested wall-time regions with explicit ids that survive
  forking (:mod:`repro.obs.spans`);
* **metrics** — counters, gauges, and bounded log-binned streaming
  histograms (:mod:`repro.obs.metrics`), kept with the spans in one
  live snapshot that ``snapshot()`` copies and ``drain()`` hands off;
* **cross-process state** — pool and serve-net workers piggyback their
  obs snapshots on the existing result pickles; the parent merges them
  into one run-wide view that survives retries and checkpoint-resume
  (:mod:`repro.obs.collect`).

Exports (:mod:`repro.obs.export`) are JSONL plus Chrome ``trace_event``
(opens in Perfetto / ``chrome://tracing``).  CLI::

    python -m repro.experiments.runner --smoke --obs-out DIR
    python -m repro.serve --clusters Venus --obs-out DIR
    python -m repro.obs summarize DIR/trace.jsonl
    python -m repro.obs diff old.jsonl new.jsonl

Typical instrumentation::

    from repro import obs

    with obs.trace("qssf.decide", cluster="Venus"):
        ...
    obs.counter_add("serve.events.submit", n)
    obs.histogram("serve.checkpoint_s").record(dt)
"""

from .collect import (
    RECORDER,
    ObsCarrier,
    ObsRecorder,
    ObsSnapshot,
    absorb_result,
    carry_result,
    counter_add,
    disable,
    drain,
    enable,
    gauge_set,
    histogram,
    is_enabled,
    merge_snapshot,
    record_span,
    reset,
    snapshot,
    trace,
    traced,
    wall_now,
)
from .export import (
    chrome_trace,
    dump_dir,
    read_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import Histogram
from .spans import Span, SpanRecord


def dump(out_dir):
    """Write the global recorder's current state under ``out_dir`` as
    ``trace.jsonl`` + ``trace.chrome.json``; returns both paths."""
    return dump_dir(snapshot(), out_dir)


__all__ = [
    "Histogram",
    "ObsCarrier",
    "ObsRecorder",
    "ObsSnapshot",
    "RECORDER",
    "Span",
    "SpanRecord",
    "absorb_result",
    "carry_result",
    "chrome_trace",
    "counter_add",
    "disable",
    "drain",
    "dump",
    "dump_dir",
    "enable",
    "gauge_set",
    "histogram",
    "is_enabled",
    "merge_snapshot",
    "read_jsonl",
    "record_span",
    "reset",
    "snapshot",
    "trace",
    "traced",
    "validate_chrome_trace",
    "wall_now",
    "write_chrome_trace",
    "write_jsonl",
]
