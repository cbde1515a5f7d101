"""Host speed, measured with a fixed reference chunk while the work runs.

The benchmark's host is a shared VM whose speed drifts: the same pass runs
up to 1.6 times longer in a slow window than in a fast one, and a window
lasts from seconds to minutes.  A time measured on it says as much about the
window as about the code.  So each timed interval is rescaled by how long a
fixed pure-Python chunk (``reference``, dict and tuple work like subtlesw's
polynomial code, and independent of subtlesw) took next to it:

    normalized = raw * REF_S / (time of the reference chunk nearby)

that is, the time the work would take on a host that runs the chunk in
``REF_S`` seconds.  A change to subtlesw moves the raw time and leaves the
chunk alone, so it moves the normalized time by the same share.

``Sampler`` times the chunk every ``interval`` seconds of work from a
``SIGALRM`` handler, in the thread that does the work, and weights each
stretch of work by the chunk times on either side of it.  ``around`` brackets
a short interval (one CLI process, one set-up) with a chunk on each side.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_S = 0.002  # the reference chunk's time on the nominal host
REF_REPEAT = 3  # chunks timed by ``around`` on each side of an interval


def reference():
    """The fixed chunk: 1.5–2.6 ms of dict, tuple and int work on a 2-vCPU Xeon VM."""
    d = {}
    for i in range(6000):
        k = (i % 97, i % 89, i & 31)
        d[k] = d.get(k, 0) ^ (i & 1)
    return len(d)


def time_reference(repeat=1):
    """Median seconds of ``repeat`` reference chunks."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def around(raw_s, before_s, after_s):
    """Normalize ``raw_s`` by chunk times taken just before and just after it."""
    return raw_s * REF_S / ((before_s + after_s) / 2)


class Sampler:
    """Times the reference chunk every ``interval`` seconds between ``start``
    and ``stop``; ``normalized`` then gives the work time rescaled to
    ``REF_S``, and ``raw`` the wall time without the chunks."""

    def __init__(self, interval=0.025):
        self.interval = interval
        self.samples = []  # (start, duration) of each chunk
        self._old = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        reference()
        self.samples.append((t0, time.perf_counter() - t0))
        # one-shot, re-armed after the chunk: a slow chunk never queues another
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _gaps(self):
        """(work seconds, chunk time on the left, chunk time on the right)."""
        s = self.samples
        return [(t1 - (t0 + d0), d0, d1) for (t0, d0), (t1, d1) in zip(s, s[1:])]

    def raw(self):
        return sum(gap for gap, _, _ in self._gaps())

    def normalized(self):
        return sum(around(gap, d0, d1) for gap, d0, d1 in self._gaps())
