"""Golden-payload regression harness for the smoke-profile exhibits.

Every exhibit in the runner's ``--smoke`` profile has a committed golden
digest under ``tests/goldens/<exp_id>.json``.  The digest is a SHA-256
over the exhibit payload serialized with the same deterministic codec
the artifact cache uses (:func:`repro.experiments.cache.dumps_payload`),
after scrubbing the few genuinely volatile fields (wall-clock timings
and latency percentiles of the serving exhibits).  Everything else —
tables, series, digests, counters, rendered text — is locked byte-for-
byte, so any refactor that silently changes an exhibit payload fails
here with the offending exhibit named.

To re-bless the goldens after an *intentional* payload change::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --regen-goldens

and commit the rewritten ``tests/goldens/*.json`` alongside the change
that motivated it.  See ``tests/goldens/README.md``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.cache import dumps_payload
from repro.experiments.orchestrator import _run_seeded
from repro.experiments.registry import smoke_ids
from repro.framework import fork_available

# Cold smoke exhibits include replays + forecaster fits (~20 s);
# tier-1 and the CI coverage job run this, quick loops skip it.
pytestmark = pytest.mark.slow

GOLDENS_DIR = Path(__file__).parent / "goldens"

#: Keys whose values depend on the wall clock, scrubbed (recursively, by
#: name) before digesting.  Everything else must be deterministic.
VOLATILE_KEYS = frozenset(
    {"wall_seconds", "events_per_s", "qssf_latency", "ces_latency",
     "net_stats"}
)

#: Exhibits whose rendered ``text`` embeds the volatile metrics above
#: (the serving exhibits print events/s and latency percentiles); their
#: text is scrubbed too.  Every other exhibit's text is locked.
VOLATILE_TEXT = frozenset({"serve_smoke", "serve_replay"})

#: Exhibits whose payload needs ``os.fork``: ``serve_chaos`` SIGKILLs a
#: forked router worker, and without fork the router serves in-process,
#: where the crash fault has nothing to kill.
NEEDS_FORK = frozenset({"serve_chaos"})


def scrub(obj, *, drop_text: bool = False):
    """Recursively drop volatile keys from a payload (non-destructive)."""
    if isinstance(obj, dict):
        return {
            k: scrub(v, drop_text=drop_text)
            for k, v in obj.items()
            if k not in VOLATILE_KEYS and not (drop_text and k == "text")
        }
    if isinstance(obj, (list, tuple)):
        scrubbed = [scrub(v, drop_text=drop_text) for v in obj]
        return type(obj)(scrubbed) if isinstance(obj, tuple) else scrubbed
    return obj


def payload_digest(exp_id: str, payload: dict) -> str:
    stable = scrub(payload, drop_text=exp_id in VOLATILE_TEXT)
    return hashlib.sha256(dumps_payload(stable)).hexdigest()


def golden_path(exp_id: str) -> Path:
    return GOLDENS_DIR / f"{exp_id}.json"


@pytest.mark.parametrize("exp_id", smoke_ids())
def test_smoke_payload_matches_golden(exp_id, request):
    if exp_id in NEEDS_FORK and not fork_available():
        pytest.skip(f"{exp_id} needs os.fork")
    payload = _run_seeded(exp_id)  # the orchestrator's seeded code path
    digest = payload_digest(exp_id, payload)
    path = golden_path(exp_id)

    if request.config.getoption("--regen-goldens"):
        GOLDENS_DIR.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "exp_id": exp_id,
                    "payload_sha256": digest,
                    "scrubbed_keys": sorted(VOLATILE_KEYS),
                    "text_scrubbed": exp_id in VOLATILE_TEXT,
                },
                indent=2,
            )
            + "\n"
        )
        return

    assert path.exists(), (
        f"no golden for smoke exhibit {exp_id!r}; generate it with "
        "`python -m pytest tests/test_goldens.py --regen-goldens`"
    )
    golden = json.loads(path.read_text())
    assert digest == golden["payload_sha256"], (
        f"{exp_id} payload drifted from its golden digest — if the change "
        "is intentional, re-bless with --regen-goldens and commit the "
        "updated tests/goldens/*.json"
    )


def test_every_smoke_exhibit_has_a_golden(request):
    """No smoke exhibit can be added without committing its golden."""
    if request.config.getoption("--regen-goldens"):
        pytest.skip("regenerating")
    missing = [eid for eid in smoke_ids() if not golden_path(eid).exists()]
    assert not missing, f"smoke exhibits without goldens: {missing}"


def test_no_stale_goldens():
    """Every committed golden still names a smoke exhibit."""
    known = set(smoke_ids())
    stale = sorted(
        p.stem
        for p in GOLDENS_DIR.glob("*.json")
        if p.stem not in known
    )
    assert not stale, f"goldens for non-smoke exhibits: {stale}"
