"""Host-speed probe: a fixed slice of interpreter and small-array work.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes (the same GrubJoin replay took 1.8 s to 3.5 s within four
minutes, with process CPU time tracking wall time, so the slowdown is
not visible as lost CPU).  The probe is timed around every replay and
end-to-end times are reported in *probe-scaled seconds* — host seconds
times ``NOMINAL_S / probe_s`` — so a slow phase of the host slows the
probe and the program alike and cancels, while a slower program does not
slow the probe.

The work mixes what the program spends its time on: heap, dict and
tuple churn in the interpreter, and binary searches and masks on arrays
of a few thousand floats.  It uses nothing from ``repro``.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import statistics
import time

import numpy as np

#: about one probe round on the host the benchmark was sized on, when
#: quiet; it only sets the unit of probe-scaled seconds
NOMINAL_S = 0.03

ROUNDS = 8


def _work() -> float:
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(24000):
        heapq.heappush(heap, ((i * 7919) % 1009 / 7.0, i, (i, i + 1)))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
        table[i & 1023] = (acc, i)
    values = np.sort(np.random.default_rng(0).random(4096))
    for i in range(1600):
        j = int(np.searchsorted(values, i / 1600.0))
        acc += float((values[j:j + 256] > 0.5).sum())
    return acc


def _rounds() -> float:
    times = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        _work()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _rounds_into(conn) -> None:
    conn.send(_rounds())
    conn.close()


def host_probe(processes: int = 1) -> float:
    """Median seconds of one probe round over :data:`ROUNDS` rounds.

    With ``processes`` > 1 the probe runs that many copies at once and
    returns their mean, so a workload that keeps several cores busy is
    scaled by the speed of as many cores."""
    if processes == 1:
        return _rounds()
    # fork, not spawn: spawn starts a resource-tracker process that
    # outlives the caller
    ctx = mp.get_context("fork")
    pipes, procs = [], []
    for _ in range(processes):
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_rounds_into, args=(child,))
        proc.start()
        child.close()
        pipes.append(parent)
        procs.append(proc)
    try:
        times = [conn.recv() for conn in pipes]
    finally:
        for proc in procs:
            proc.join(timeout=30.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
    return statistics.fmean(times)


if __name__ == "__main__":
    print(host_probe(), host_probe(2))
