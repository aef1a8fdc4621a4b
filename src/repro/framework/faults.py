"""Deterministic fault-injection plane for chaos testing.

A :class:`FaultPlan` is a seeded, picklable description of *exactly*
which faults fire where: each :class:`FaultSpec` is keyed by the
worker's label (``key``), the retry ``attempt`` on which it fires, and
optionally a progress index ``at`` (e.g. a stream-batch number) so a
crash lands mid-run rather than at startup.  A plan travels only as an
argument: the CLI parses ``--fault-plan`` and hands it to the router,
which passes it to every worker it forks — nothing is read from the
environment, so a run without a plan injects nothing.  The same plan +
seed replays the identical fault sequence bit-for-bit — the property
the crash-recovery parity suite relies on.

Fault kinds:

* ``crash``      — the worker process SIGKILLs itself (no cleanup, no
  goodbye message): the router sees its link hang up.
* ``hang``       — the worker stalls (its acks stop) until the router's
  RPC deadline takes its link down.
* ``slow_start`` — the worker sleeps ``delay_s`` before doing work;
  exercises timeout headroom without failing.
* ``exception``  — the worker raises :class:`TransientWorkerFault`,
  which ends the worker process: the router sees a hangup.

Network fault kinds (:data:`NET_FAULT_KINDS`) are injected at the
serving control plane's *framing* layer (:mod:`repro.serve.net.framing`)
instead of inside a worker; ``at`` indexes the link's frame sequence
number rather than a stream batch:

* ``drop``       — ``span`` consecutive outgoing frames are silently
  discarded: the peer never sees them (a lost request or ack).
* ``delay``      — ``span`` consecutive frames are delivered ``delay_s``
  late (frames sent in between overtake them).
* ``duplicate``  — ``span`` consecutive frames are each delivered twice
  (a retransmit race); consumers must be idempotent.
* ``partition``  — the link carries *nothing* in either direction for
  ``span`` frames counted per side: requests and replies both vanish,
  the router sees only silence.

A plan may carry several faults for the same (key, attempt) as long as
their ``at`` indices differ — e.g. drop frame 40 *and* partition from
frame 90 on the same link epoch.  Exact duplicates (same key, attempt
*and* at) are rejected so a replay stays unambiguous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "ALL_FAULT_KINDS",
    "FAULT_KINDS",
    "NET_FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "TransientWorkerFault",
]

#: process-level kinds, fired inside a serving worker process
FAULT_KINDS = ("crash", "hang", "slow_start", "exception")
#: network-level kinds, fired at the serve-net framing layer
NET_FAULT_KINDS = ("drop", "delay", "duplicate", "partition")
ALL_FAULT_KINDS = FAULT_KINDS + NET_FAULT_KINDS


class TransientWorkerFault(RuntimeError):
    """The injected retryable exception (``kind="exception"``)."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``key``     — the worker label the fault targets (e.g. a cluster name).
    ``attempt`` — the retry attempt (0 = first try) on which it fires.
    ``at``      — progress index at which it fires; ``None`` fires at
    worker startup, before any work is done.  Progress is whatever the
    task reports via ``WorkerContext.maybe_fault(progress)`` — the
    serving shard reports its stream-batch index.
    ``delay_s`` — sleep length for ``slow_start`` (and an optional cap
    for ``hang``; 0 means "hang until killed"); delivery lateness for
    the network ``delay`` kind.
    ``span``    — how many consecutive frames a network fault covers
    (all four net kinds honor the ``[at, at+span)`` window; process
    kinds ignore it).
    """

    key: str
    kind: str = "exception"
    attempt: int = 0
    at: int | None = None
    delay_s: float = 0.0
    span: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {ALL_FAULT_KINDS}"
            )
        if self.attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {self.attempt}")
        if self.at is not None and self.at < 0:
            raise ValueError(f"at must be None or >= 0, got {self.at}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.span < 1:
            raise ValueError(f"span must be >= 1, got {self.span}")
        if self.kind in NET_FAULT_KINDS and self.at is None:
            raise ValueError(
                f"network fault {self.kind!r} needs an 'at' frame index"
            )

    @property
    def is_net(self) -> bool:
        return self.kind in NET_FAULT_KINDS

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "kind": self.kind,
            "attempt": self.attempt,
            "at": self.at,
            "delay_s": self.delay_s,
            "span": self.span,
        }


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable set of faults keyed by (label, attempt, at).

    Picklable and JSON round-trippable; at most one fault per
    (key, attempt, at) triple so a replay is unambiguous.  Several
    faults may share a (key, attempt) pair when they fire at different
    progress indices.
    """

    seed: int = 0
    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        seen: set[tuple[str, int, int | None]] = set()
        for f in self.faults:
            triple = (f.key, f.attempt, f.at)
            if triple in seen:
                raise ValueError(
                    f"duplicate fault for key={f.key!r} "
                    f"attempt={f.attempt} at={f.at}"
                )
            seen.add(triple)

    def process_faults_for(self, key: str, attempt: int) -> tuple[FaultSpec, ...]:
        """Every process-level fault planned for this (label, attempt)."""
        return tuple(
            f for f in self.faults
            if f.key == key and f.attempt == attempt and not f.is_net
        )

    def net_faults_for(self, key: str, attempt: int) -> tuple[FaultSpec, ...]:
        """Every network fault planned for this (link label, epoch)."""
        return tuple(
            f for f in self.faults
            if f.key == key and f.attempt == attempt and f.is_net
        )

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "faults": [f.as_dict() for f in self.faults]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            seed=int(data.get("seed", 0)),
            faults=tuple(FaultSpec(**f) for f in data.get("faults", ())),
        )

