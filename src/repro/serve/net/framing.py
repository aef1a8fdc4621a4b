"""Length-prefixed message framing with deterministic fault injection.

Wire format (zero dependencies beyond the stdlib): every frame is

    [4-byte big-endian payload length] [1 tag byte] [payload]

with tag ``b"P"`` for pickle (the internal router↔worker protocol —
checkpoints and reports carry numpy arrays and dataclasses) and
``b"J"`` for UTF-8 JSON (external front-door clients, whose links
decode with :func:`unpack_json` and never unpickle anything).  The
length covers tag + payload, so a reader can split frames without
understanding either encoding.

:class:`FramedConn` wraps a non-blocking socket with send/receive
buffering — the single-threaded router pumps many of them from one
loop.  :class:`NetFaultFilter` sits between :meth:`FramedConn.send` /
``receive`` and the socket, injecting the network fault kinds from
:mod:`repro.framework.faults` (``drop`` / ``delay`` / ``duplicate`` /
``partition``) keyed by ``(link label, epoch, frame sequence)`` — the
same deterministic, replayable keying the process-fault plane uses, so
a chaos run's lost and late frames land identically every time.  Faults
are installed on the **router's** side of each link only: one filter
per link sees every frame in both directions.
"""

from __future__ import annotations

import json
import pickle
import struct
import time

from ...framework.faults import FaultPlan, FaultSpec

__all__ = ["FramedConn", "NetFaultFilter", "pack", "unpack", "unpack_json"]

_HEADER = struct.Struct(">I")
#: worker links' frame bound: checkpoints ride them, so it is generous
_MAX_FRAME = 1 << 31

TAG_PICKLE = b"P"
TAG_JSON = b"J"


def pack(msg: object, fmt: str = "pickle") -> bytes:
    """Encode one message into a framed byte string."""
    if fmt == "pickle":
        tag, payload = TAG_PICKLE, pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
    elif fmt == "json":
        tag, payload = TAG_JSON, json.dumps(msg, sort_keys=True).encode()
    else:
        raise ValueError(f"unknown frame format {fmt!r}")
    # One copy of the payload, however large (a checkpoint ack is MBs).
    return b"".join((_HEADER.pack(len(payload) + 1), tag, payload))


def unpack(body) -> object:
    """Decode one frame body (tag byte + payload; bytes or a
    memoryview)."""
    if body[:1] == TAG_PICKLE:
        return pickle.loads(body[1:])
    return unpack_json(body)


def unpack_json(body) -> object:
    """Decode one JSON frame body (bytes or a memoryview); any other tag
    raises ValueError, as do bad UTF-8 and bad JSON (both are
    ValueErrors)."""
    tag = bytes(body[:1])
    if tag != TAG_JSON:
        raise ValueError(f"unknown frame tag {tag!r}")
    return json.loads(str(body[1:], "utf-8"))


class NetFaultFilter:
    """Deterministic frame-level fault injection for one link epoch.

    Frames are counted per direction (``out_seq`` for sends, ``in_seq``
    for receives), starting at 0 each epoch — re-keying on respawn via
    :meth:`rekey` mirrors how process faults key on the retry attempt.

    Outgoing kinds, all honoring the ``[at, at+span)`` window: ``drop``
    discards those frames; ``duplicate`` sends each of them twice;
    ``delay`` holds each for ``delay_s`` before it goes out (later
    frames overtake it — the reorder consumers must tolerate).
    ``partition`` silences **both** directions for ``span`` frames
    counted per side.
    """

    def __init__(self, plan: FaultPlan | None, label: str, epoch: int = 0) -> None:
        self.plan = plan
        self.label = label
        self.out_seq = 0
        self.in_seq = 0
        self.dropped = 0
        self._held: list[tuple[float, bytes]] = []
        self._faults: tuple[FaultSpec, ...] = ()
        self.rekey(epoch)

    def rekey(self, epoch: int) -> None:
        """Start a new link epoch: reset both counters, reload faults."""
        self.epoch = epoch
        self.out_seq = 0
        self.in_seq = 0
        self._held.clear()
        self._faults = (
            self.plan.net_faults_for(self.label, epoch) if self.plan else ()
        )

    def _blocked(self, seq: int, kinds: tuple[str, ...]) -> bool:
        return any(
            f.kind in kinds and f.at <= seq < f.at + f.span for f in self._faults
        )

    def outgoing(self, frame: bytes, now: float) -> list[bytes]:
        """Frames to put on the wire right now for one sent frame."""
        seq = self.out_seq
        self.out_seq += 1
        if self._blocked(seq, ("drop", "partition")):
            self.dropped += 1
            return []
        # Every kind honors the [at, at+span) window — a span-N delay
        # holds N consecutive frames, a span-N duplicate doubles N.
        for f in self._faults:
            if f.kind == "delay" and f.at <= seq < f.at + f.span:
                self._held.append((now + f.delay_s, frame))
                return []
            if f.kind == "duplicate" and f.at <= seq < f.at + f.span:
                return [frame, frame]
        return [frame]

    def next_release(self) -> float | None:
        """When the first held frame falls due (None: none is held)."""
        return min((when for when, _ in self._held), default=None)

    def due(self, now: float) -> list[bytes]:
        """Delayed frames whose release time has arrived."""
        if not self._held:
            return []
        ready = [frame for when, frame in self._held if when <= now]
        if ready:
            self._held = [(when, f) for when, f in self._held if when > now]
        return ready

    def incoming(self) -> bool:
        """Whether the next received frame is delivered (partitions
        swallow inbound frames too)."""
        seq = self.in_seq
        self.in_seq += 1
        if self._blocked(seq, ("partition",)):
            self.dropped += 1
            return False
        return True


class FramedConn:
    """Buffered, non-blocking framed messaging over one socket.

    ``send`` frames and queues; :meth:`pump` flushes what the kernel
    will take and releases any fault-delayed frames; :meth:`receive`
    reads the socket and returns the complete messages it decodes, at
    most :attr:`max_messages` of them.  It reads ahead by at most one
    :attr:`max_frame` frame: past that, the rest waits in the kernel
    and the peer meets TCP backpressure.  A peer hangup or socket error
    sets ``closed`` — the router treats that as a dead worker.
    """

    #: largest frame (tag + payload) a peer may announce
    max_frame = _MAX_FRAME
    #: most messages one :meth:`receive` decodes (None: every complete one)
    max_messages: int | None = None

    def __init__(self, sock, faults: NetFaultFilter | None = None) -> None:
        sock.setblocking(False)
        self.sock = sock
        self.faults = faults
        self.closed = False
        self._out = bytearray()
        self._in = bytearray()

    def fileno(self) -> int:
        return self.sock.fileno()

    def _decode(self, body) -> object:
        return unpack(body)

    def _oversized(self, length: int) -> None:
        """A header announced a frame over :attr:`max_frame`: nothing
        after it can be trusted, so the link closes."""
        self.closed = True

    def send(self, msg: object, fmt: str = "pickle") -> None:
        frame = pack(msg, fmt)
        if self.faults is None:
            self._out += frame
        else:
            for f in self.faults.outgoing(frame, time.monotonic()):
                self._out += f
        self.pump()

    def pump(self) -> None:
        """Flush buffered output; release due delayed frames."""
        if self.closed:
            return
        if self.faults is not None:
            for frame in self.faults.due(time.monotonic()):
                self._out += frame
        while self._out:
            try:
                n = self.sock.send(self._out)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self.closed = True
                return
            if n <= 0:
                return
            del self._out[:n]

    @property
    def want_write(self) -> bool:
        """Whether bytes wait for the socket to take them (a frame a
        delay fault holds is not output yet: it falls due at
        :meth:`NetFaultFilter.next_release`)."""
        return bool(self._out)

    def receive(self) -> list[object]:
        """The complete messages currently readable, up to
        :attr:`max_messages` (possibly none); the rest stay buffered."""
        while not self.closed and len(self._in) <= self.max_frame + _HEADER.size:
            try:
                chunk = self.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self.closed = True
                break
            if not chunk:
                self.closed = True
                break
            self._in += chunk
        msgs: list[object] = []
        while len(self._in) >= _HEADER.size and len(msgs) != self.max_messages:
            (length,) = _HEADER.unpack_from(self._in)
            if length > self.max_frame:
                self._in.clear()
                self._oversized(length)
                break
            end = _HEADER.size + length
            if len(self._in) < end:
                break
            if self.faults is None or self.faults.incoming():
                # Decoded in place: a checkpoint ack's MBs are copied
                # once, by the unpickler, not sliced out first.
                with memoryview(self._in) as buf, buf[_HEADER.size:end] as body:
                    msgs.append(self._decode(body))
            del self._in[:end]
        return msgs

    def close(self) -> None:
        self.closed = True
        try:
            self.sock.close()
        except OSError:
            pass
