"""Host-speed probe and the clock that rescales wall time by it.

The benchmark shares its machine with other tenants, and their load changes
how fast this process runs by up to 2x over tens of seconds.  CPU time
moves with wall time, so neither can separate a slower program from a busier
host.  The probe is a fixed piece of pure-Python work, independent of grex,
of the same kind grex does (dicts keyed by small tuples, recursion, integer
arithmetic).  `SpeedClock` interrupts the measured code every
`INTERVAL_S`, times one probe, and charges the wall time elapsed since the
previous probe at the speed that probe saw.  The result is the wall time
the code would have taken on a host where one probe takes `NOMINAL_S`.

The raw wall time is always recorded next to the rescaled one.
"""

from __future__ import annotations

import signal
import statistics
import time

# One probe on an idle 2-core Intel Xeon host with CPython 3.11.
NOMINAL_S = 0.0005
INTERVAL_S = 0.05

_clock = time.perf_counter


def probe() -> int:
    """The fixed unit of work whose duration measures host speed."""
    counts: dict[tuple[int, ...], int] = {}

    def fill(depth: int, acc: tuple[int, ...]) -> None:
        if depth == 0:
            counts[acc] = counts.get(acc, 0) + 1
            return
        for a in range(3):
            fill(depth - 1, acc + (a,) if a else acc)

    fill(6, ())
    s = 0
    for i in range(1500):
        s += (i * i) % 7
    return s + len(counts)


def probe_seconds(repeat: int = 1) -> list[float]:
    """Durations of `repeat` consecutive probes."""
    out = []
    for _ in range(repeat):
        t0 = _clock()
        probe()
        out.append(_clock() - t0)
    return out


def rescale(raw_s: float, probes: list[float]) -> float:
    """`raw_s` measured while the probe took `probes`, at nominal speed."""
    return raw_s * NOMINAL_S / statistics.median(probes)


class SpeedClock:
    """Wall time of a code region, raw and rescaled to nominal host speed.

    Uses SIGALRM, so only one clock may run in a process, from the main
    thread.  The probes' own time is excluded from both figures.
    """

    def __init__(self) -> None:
        self._marks: list[tuple[float, float]] = []  # (probe start, probe duration)
        self._t0 = 0.0
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        t = _clock()
        probe()
        self._marks.append((t, _clock() - t))

    def start(self) -> None:
        self._marks = []
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = _clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> dict:
        t_end = _clock()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._tick(signal.SIGALRM, None)  # prices the segment after the last tick
        raw = 0.0
        scaled = 0.0
        prev = self._t0
        for t, d in self._marks:
            seg = min(t, t_end) - prev
            raw += seg
            scaled += seg * NOMINAL_S / d
            prev = t + d
        durations = [d for _, d in self._marks]
        return {
            "raw_s": raw,
            "scaled_s": scaled,
            "probes": len(durations),
            "probe_median_s": statistics.median(durations),
        }
