"""The host's current speed, read from fixed references that share no code with the package.

On a shared virtual machine the CPU's speed drifts by tens of percent over
minutes, and it switches between fast and slow phases lasting seconds: the
same op can take 0.7 ms in one run and 1.2 ms in a run a few minutes later.
So each run also times a reference, untimed in the ops themselves, at
regular steps of op time, and reports every op time at the nominal speed:
raw seconds x nominal reference time / (reference time around the op).
The drift of the host divides out, a change to the package does not.  The
raw figures and the median slowdown are kept in the record line.

Work inside a process and start-up work - a new interpreter, imports from
disk - follow the phases differently, so there are two references:

- IN_PROCESS, a plain Python loop: of the kernels tried (small numpy
  products, the loop) it followed the package's in-process ops most
  closely.  Read after every 5 ms of op time.
- START_UP, an interpreter that imports numpy alone, for the CLI's ops and
  for set-up times.  Read after every second of op time, and after each
  set-up interpreter.
"""

from dataclasses import dataclass
import math
import statistics
import subprocess
import sys
import time
from typing import Callable


def _loop():
    s = 0.0
    for i in range(1500):
        s += math.sqrt(i * 0.5 + 1.0) * 0.25
    return s


def probe_in_process():
    """Seconds one run of the Python loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def probe_start_up(env, cwd):
    """Seconds a fresh interpreter takes now to start, import numpy alone and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Gauge:
    """How a workload reads the host's speed.

    nominal_s is the reference's time on the 2-vCPU virtual machine the
    benchmark was tuned on, in a fast phase; it only sets the scale of the
    reported figures.
    """

    probe: Callable[[], float]
    every_s: float      # op time between two readings
    nominal_s: float
    half: int           # readings on each side of an op that set its slowdown

    def factors(self, samples, positions):
        """Slowdown against nominal speed at each position in the run.

        samples are the reference times in the order they were read;
        position j stands for the moment after the j-th reading.  Each
        slowdown is the median of the `half` readings before and the `half`
        after it, so an op is scaled by the speed of the stretch it ran in.
        """
        return [statistics.median(samples[max(0, j - self.half):j + self.half] or samples)
                / self.nominal_s for j in positions]


IN_PROCESS = Gauge(probe_in_process, every_s=0.005, nominal_s=100e-6, half=10)
NOMINAL_START_UP_S = 0.1


def start_up(env, cwd):
    """The START_UP gauge for children run with `env` in `cwd`."""
    return Gauge(lambda: probe_start_up(env, cwd), every_s=1.0, nominal_s=NOMINAL_START_UP_S,
                 half=3)
