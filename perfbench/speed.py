"""Machine-speed reference: report host seconds at a fixed speed.

The host this benchmark runs on changes speed by up to 2x over
minutes (other tenants, shared cores), and no run is long enough to
average that out. A small fixed pure-Python probe, timed *interleaved*
with the work, slows down with it: over 10-second windows the
simulator's cell time varied with a CV of 0.17 and its ratio to the
interleaved probe with a CV of 0.02 to 0.06. So every time the benchmark
reports is ``host seconds * REFERENCE_PROBE_S / probe seconds``: the
seconds the work would take on a host that runs the probe in
:data:`REFERENCE_PROBE_S`.

The probe is the benchmark's own code, not the package's, so a change
to the package moves the work's time and never the probe's.
"""

import heapq
import signal
import statistics
import time

#: Probe seconds at the reference speed: about the probe's median, run
#: on its own, on a quiet 2-core x86 VM (Python 3.11). Only a scale.
REFERENCE_PROBE_S = 0.004
#: Seconds between probe samples taken during a measured pass.
SAMPLE_INTERVAL_S = 0.15
#: Share of samples dropped at each end before averaging.
TRIM = 0.1


def probe(processes=600, steps=5):
    """A fixed slice of DES-like work: generators resumed off a heap."""
    state = {}

    def process(index):
        for step in range(steps):
            state[index] = state.get(index, 0) + step
            yield (index * 7 + step * 13) % 97 + 1

    queue = [(0, index, process(index)) for index in range(processes)]
    heapq.heapify(queue)
    seq = processes
    while queue:
        now, _, gen = heapq.heappop(queue)
        for delay in gen:
            seq += 1
            heapq.heappush(queue, (now + delay, seq, gen))
            break
    return seq


def timed_probe():
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def slowness(samples):
    """Trimmed-mean probe time over the reference: 2.0 = half speed."""
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return statistics.fmean(kept) / REFERENCE_PROBE_S


class Sampler:
    """Times the probe every :data:`SAMPLE_INTERVAL_S` during a block.

    A ``SIGALRM`` handler runs the probe between the work's bytecodes,
    so the samples interleave with the work. ``overhead_s`` is the time
    the handler took, to subtract from the block's wall time.
    """

    def __init__(self):
        self.samples = []
        self.overhead_s = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(timed_probe())
        self.overhead_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(
            signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
        )
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_seconds(self, wall_s):
        """``wall_s`` minus the probes, at the reference speed."""
        samples = self.samples or [timed_probe() for _ in range(5)]
        return (wall_s - self.overhead_s) / slowness(samples)
