"""Host-speed speedometer: how fast this vCPU runs fixed work, while it works.

The shared 2-vCPU host this benchmark was built on changes the speed of
each vCPU by up to 1.7x, on scales from a second to minutes, whatever the
benchmark does: the same 24k-row ``plan apply`` command took 1.8 s and
2.9 s a few seconds apart.  The state of one vCPU does not follow the
other's, and it can flip within one command, so a probe run before and
after an operation, or on the other vCPU, hardly correlates with it.

So a :class:`Speedometer` process runs next to the operation, on the same
vCPU, at the lowest priority (nice 19): it takes about 1.5% of the vCPU
while the operation runs and loops a fixed probe, logging when each probe
started and the CPU time it took.  Each operation's time is then adjusted
by the median probe time measured *during* that operation, or, for an
operation as short as one served batch, nearest to it (:func:`adjusted`).
On the reference host the log of a command's wall against the log of the
concurrent probe time correlated at 0.92–0.98.  Per command the slope was
0.59–0.73, pulled low by the noise of a median over about ten probes;
over whole runs, where that noise averages out, it was 0.65–1.0 depending
on the hour.  :data:`ELASTICITY` sits in the middle of that range.

The probe touches nothing of the program: Python dict, string and float
work, like the CSV codec, and small-object churn, like plan replay's
bookkeeping.  So a change to the program moves the adjusted times in the
same proportion as the raw ones, while a slower vCPU moves both the
operation and the probe.

Run as ``python hostspeed.py <log path>`` to start a speedometer by hand;
it stops on SIGTERM or when its parent exits.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The probe's median CPU time on the reference host, in seconds.
REFERENCE_S = 0.0027
#: d log(operation time) / d log(probe time), measured on the reference host.
ELASTICITY = 0.8
#: Fewest probes an operation's adjustment is based on; an operation too
#: short to hold that many, such as one served batch, takes the ones
#: nearest to it in time.
MIN_PROBES = 5

_FLOATS = [i * 0.37 + 0.001 * (i % 13) for i in range(300)]


def probe() -> float:
    """CPU seconds one run of the fixed probe work takes now."""
    start = time.process_time()
    counts: dict[str, int] = {}
    for i in range(1500):
        key = "k%03d" % (i % 211)
        counts[key] = counts.get(key, 0) + len(str(i * 7))
    for j in range(4):
        line = ",".join(repr(v + j) for v in _FLOATS)
        [float(cell) for cell in line.split(",")]
    rows = [{"a": i, "b": [i, i + 1], "c": str(i)} for i in range(1000)]
    sorted(rows, key=lambda row: row["c"])
    return time.process_time() - start


def adjusted(wall: float, cpu: float, probe_s: float) -> float:
    """*wall* with its CPU part rescaled to the reference host speed.

    *cpu* is the CPU time the operation used and *probe_s* the probe time
    measured during it.  Time spent waiting (modelled FM latency, I/O)
    is kept as measured; only the CPU time, which a slow vCPU stretches
    as it stretches the probe, is rescaled.
    """
    return wall - cpu * (1.0 - (REFERENCE_S / probe_s) ** ELASTICITY)


class Speedometer:
    """A low-priority probe loop on this process's vCPUs, logging to a file.

    Start it after pinning the process: the speedometer inherits the CPU
    affinity.  ``perf_counter`` is ``CLOCK_MONOTONIC``, the same clock in
    every process, so operation intervals timed anywhere can be matched
    against the log.
    """

    def __init__(self, log_path: Path) -> None:
        self.log_path = Path(log_path)
        self.log_path.write_text("")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.log_path)],
            stdin=subprocess.DEVNULL,
        )
        self._starts: list[float] = []
        self._took: list[float] = []
        self._read = 0
        # At nice 19 next to a busy operation, interpreter start-up alone
        # could take seconds: wait for the first probes while this vCPU idles.
        deadline = time.perf_counter() + 30
        while self._read_log() < MIN_PROBES:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.close()
                raise RuntimeError("the speedometer did not start")
            time.sleep(0.01)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def _read_log(self) -> int:
        """Take in the probes logged since the last call; return the count."""
        with open(self.log_path) as handle:
            handle.seek(self._read)
            text = handle.read()
        complete = text.rfind("\n") + 1
        self._read += complete
        for line in text[:complete].splitlines():
            start, took = line.split()
            self._starts.append(float(start))
            self._took.append(float(took))
        return len(self._starts)

    def probe_s(self, start: float, end: float) -> float:
        """Median probe time over ``[start, end]``; when fewer than
        MIN_PROBES started in it, over the MIN_PROBES nearest its middle."""
        self._read_log()
        starts = self._starts
        low = bisect.bisect_left(starts, start)
        high = bisect.bisect_right(starts, end)
        if high - low < MIN_PROBES:
            middle = (start + end) / 2
            low = high = bisect.bisect_left(starts, middle)
            while high - low < MIN_PROBES:
                if high == len(starts) or (
                    low > 0 and middle - starts[low - 1] <= starts[high] - middle
                ):
                    low -= 1
                else:
                    high += 1
        return statistics.median(self._took[low:high])


def _loop(log_path: str) -> None:
    os.nice(19)
    gc.disable()  # a collection would time this process's heap, not the host
    parent = os.getppid()
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    with open(log_path, "a") as log:
        while not stopping and os.getppid() == parent:
            start = time.perf_counter()
            took = probe()
            log.write(f"{start:.6f} {took:.7f}\n")
            log.flush()


if __name__ == "__main__":
    _loop(sys.argv[1])
