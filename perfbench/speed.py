"""Core-speed probe: a pass's times at a fixed reference core speed.

The reference VM (2 vCPUs) shares physical cores with other guests, and
its cores switch, within a second, between a fast and a slow state.
There the probe kernel below takes about 0.45 ms in the fast
state and 0.75 ms in the slow one, and a busy process on the other vCPU
puts the core in the slow state too.  The serving loop's micro-batches
take 1.5x longer in the slow state.  No steal time shows: the vCPU runs,
only slower.  The share of slow time changes from minute to minute, so
the raw times of one program spread between runs by more than any bound
on a regression could tolerate.

:class:`Probe` times a fixed kernel each time its process has used
``PERIOD_S`` more CPU seconds (``ITIMER_PROF``), inside the measured
process, so it samples the core the program is running on at that
moment.  A sample that took ``t`` says the ``PERIOD_S`` of CPU before it
ran at ``REF_S / t`` of the fast state's speed; :func:`deduction` turns
the samples within a stretch of wall time into the seconds that stretch
would have been shorter at the fast state's speed, plus the probes' own
time.  Waiting uses no CPU, is not sampled and is kept as measured.  The
pass's process and each forked net worker run their own probe.
"""

from __future__ import annotations

import json
import signal
import time
from pathlib import Path

import numpy as np

clock = time.monotonic

#: CPU seconds of a process between two of its probes
PERIOD_S = 0.1
#: the probe's time in the fast state of the reference VM's cores
#: (2-vCPU Intel Xeon VM at 2.0 GHz)
REF_S = 0.00045

_ROWS = 256
_STEPS = 40
_LOOP = 3000
_VALUES = np.linspace(0.0, 1.0, _ROWS)
_NEXT = (np.arange(_ROWS, dtype=np.int64) * 7) % _ROWS


def kernel() -> int:
    """The fixed probe work: a depth-bounded walk over small arrays (the
    shape of the program's tree walks), then plain interpreter
    arithmetic.  Together they slow by about as much as the serving loop
    does when the core is shared."""
    node = np.zeros(_ROWS, dtype=np.int64)
    for depth in range(_STEPS):
        active = _VALUES[node] > depth / _STEPS
        cur = node[active]
        node[active] = np.where(cur % 2 == 0, _NEXT[cur], cur + 1) % _ROWS
    acc = int(node.sum())
    for i in range(_LOOP):
        acc += i * i % 7
    return acc


class Probe:
    """Times :func:`kernel` every ``PERIOD_S`` of this process's CPU.

    Interval timers are not inherited across ``fork``: a forked process
    that should be probed starts a probe of its own."""

    def __init__(self) -> None:
        #: (clock at the sample, kernel seconds, seconds the sample took)
        self.samples: list[tuple[float, float, float]] = []
        #: seconds spent in probes so far
        self.spent = 0.0

    def start(self) -> None:
        kernel()  # warm the kernel's code and arrays before timing it
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)

    def _sample(self, signum, frame) -> None:
        t0 = clock()
        kernel()  # brings the kernel's code and data back into cache
        t1 = clock()
        kernel()
        t2 = clock()
        self.samples.append((t0, t2 - t1, t2 - t0))
        self.spent += t2 - t0

    def dump(self, out_dir: Path, pid: int) -> None:
        """Write the samples where the pass collects them."""
        (Path(out_dir) / f"probe-{pid}.json").write_text(json.dumps(self.samples))


def collect(out_dir: Path) -> list[list[float]]:
    """Every forked process's dumped samples."""
    return [s for path in sorted(Path(out_dir).glob("probe-*.json"))
            for s in json.loads(path.read_text())]


def deduction(samples, start: float = float("-inf"), end: float = float("inf")) -> float:
    """Seconds to take off the wall-time stretch ``[start, end)`` to
    express it at the reference speed: for each sample in it, the
    probe's own time, and how much longer than at the reference speed
    the CPU chunk before the sample ran."""
    cut = 0.0
    for t, took, spent in samples:
        if start <= t < end:
            cut += spent + (PERIOD_S - spent) * (1.0 - REF_S / took)
    return cut


def mean_speed(samples) -> float:
    """Mean core speed over the samples, relative to the reference."""
    return float(np.mean([REF_S / took for _, took, _ in samples])) if samples else 1.0
