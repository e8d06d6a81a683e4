"""Fixed reference tasks that measure how fast the machine runs right now.

On a shared virtual machine each vCPU slows and recovers on its own, over
stretches from under a second to minutes: the same fixed ops take up to 1.9
times as long in one stretch as in another, with CPU time equal to wall
time, so the slowdown is invisible to the process.  A run is timed op by op
with a reference task run before the first op and after each op; each
op's time is then scaled by the reference's nominal time over the mean time
of the task right before and right after the op.  The scaled times read as
seconds on a machine where the task takes its nominal time.  No reference
task runs mpsl code, so no change to mpsl moves them.

Each kind of op has the reference that tracks it best: in-process ops a
pure-Python task, and whole processes (cli-cold ops, set-up probes) a bare
interpreter start.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter
from typing import Callable, NamedTuple

_N = 16000


def _task() -> float:
    """Interpreter work of the kind mpsl's hot paths do: calls, float
    arithmetic, small lists and dict lookups."""
    acc = 0.0
    seen: dict[int, int] = {}
    row = [0.0] * 8
    for i in range(_N):
        x = (i * 7919) % 1013
        acc += math.sqrt(x + 1.0) * 0.5 - math.sin(i * 1e-3)
        row[i & 7] = acc
        seen[x] = seen.get(x, 0) + 1
    return acc + len(seen) + max(row)


def _task_sample() -> float:
    t0 = perf_counter()
    _task()
    return perf_counter() - t0


def _start_sample() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, check=True)
    return perf_counter() - t0


class Reference(NamedTuple):
    name: str
    nominal_s: float  # round figures near the quiet-machine times on 2 Xeon vCPUs, Python 3.11
    sample: Callable[[], float]

    def scales(self, samples: list[float]) -> list[float]:
        """Per-op factors nominal / (mean of the samples right before and
        right after the op); samples[i] and samples[i + 1] bracket op i."""
        return [2.0 * self.nominal_s / (a + b) for a, b in zip(samples, samples[1:])]


TASK = Reference("pure-Python task", 0.005, _task_sample)
START = Reference("python -c pass", 0.05, _start_sample)
