"""Speed probe: how fast the box is *while* the measured code runs.

The reference box is a shared 2-vCPU guest whose effective CPU speed
drifts by up to 1.8x over seconds to minutes: ten runs of the same work
spread by 12-28 % of their median on the clock (``evidence/runs.json``),
wider than the widest bound ``BENCHMARK.json`` may carry, and no choice
of estimator or run length removes a drift slower than a run. So a
timer signal interrupts the program every ``INTERVAL_S`` and times a fixed
pure-Python chunk; the chunk's time against ``REFERENCE_CHUNK_S`` is the
box's speed at that instant, and every host time the benchmark reports is
the raw time, less the chunks it contains, times the mean speed sampled
inside it — seconds *at the reference speed*, not seconds of a slow
spell. Raw times and the sampled speed are reported next to them
(``host.wall_raw_s``, ``host.speed``).

The handler runs on the main thread between two bytecodes, so the program
executes the same code in the same order; forked pool workers inherit no
timer.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import Any, List, Tuple

INTERVAL_S = 0.01
CHUNK = 10_000
#: the chunk's time on the reference box in a quiet spell. It only fixes
#: the unit: every reported time is proportional to it.
REFERENCE_CHUNK_S = 0.00036


class SpeedProbe:
    def __init__(self) -> None:
        self.chunks: List[float] = []

    def tick(self, *signal_args: Any) -> None:
        start = perf_counter()
        x = 0
        for i in range(CHUNK):
            x += i * i
        self.chunks.append(perf_counter() - start)

    def start(self) -> None:
        self.tick()     # at least one sample, however short the region
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """A position in the sample log, to delimit a region with."""
        return len(self.chunks)

    def region(self, since: int, until: int) -> Tuple[float, float]:
        """``(seconds spent in chunks, mean speed)`` of the samples
        ``[since, until)``; speed 1.0 is the reference speed."""
        chunks = self.chunks[since:until]
        # a region too short for a sample borrows the one before it
        sampled = chunks or self.chunks[since - 1:since]
        speed = sum(REFERENCE_CHUNK_S / chunk for chunk in sampled)
        return sum(chunks), speed / len(sampled)
