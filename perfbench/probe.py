"""Machine-speed probe that turns wall times into reference seconds.

The benchmark host is shared.  The same code runs up to twice as slow for
seconds to minutes at a time, with no steal time showing, so raw wall
times of identical runs spread by 20-40%.  A probe round times two fixed
numpy kernels that import nothing from the package under test:

- `small`: a Philox generator and normal draw, a 72 x 72 complex inverse
  FFT, `exp` and `j0` over 4096 values: call overhead and cache-resident
  arrays, like the cutoff-8 replica loop;
- `large`: a complex scale, `abs`, `j0` and a square over 300,000 values
  with fresh allocations, like the cutoff-64 FFT loop and the
  `regularized_variance` box sum.

Slowed by contention, the replica loop follows `small` and the array
passes follow `large`, each closer than either follows the other kernel,
so the slowdown of a round is the mean of the two kernels' times over
their reference times.  A time t measured at slowdown s is reported as
t / s: seconds on a machine where both kernels take their reference
times.

The rounds run in a separate probe process (`Probe`, this file run as a
script), not in the benchmark's own: it has its own interpreter, heap and
allocator state, and the benchmark waits while a round runs, so the two
never compete for a CPU.  `run.py` pins both to one CPU, so the probe
measures the CPU the ops run on.  Each timed round follows an untimed
one that fills the caches with the probe's own data.  `baseline.json`
records the median slowdown per workload, from runs that interleave the
workloads seed by seed: they agree when the probe follows the host and
not the workload.

During a pass, `Sampler` asks for one round from a SIGALRM timer every
INTERVAL_S, so an op of several seconds is normalized by the speed
measured while it ran, and the sampler's own time is taken out of the
op's time.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time

# the kernels' median times on the 2-vCPU 2.0 GHz Xeon host of the first
# baseline; they fix the unit, not the comparison between two commits
REF_SMALL_S = 2.5e-3
REF_LARGE_S = 5.5e-3
SMALL_REPEATS = 10
PROBE_ROUNDS = 5
INTERVAL_S = 0.3


def serve() -> None:
    """Probe process: for each line n on stdin, print the mean slowdown of
    n rounds, timed after one untimed round that refills the CPU caches
    with the probe's own data."""
    import numpy as np
    from scipy.special import j0

    rng = np.random.default_rng(0)
    grid = rng.standard_normal((72, 72)) + 0j
    small = rng.standard_normal(4096)
    large = rng.standard_normal(300_000)

    def one_round() -> float:
        t0 = time.perf_counter()
        for k in range(SMALL_REPEATS):
            gen = np.random.Generator(np.random.Philox(key=np.array([k, 1], dtype=np.uint64)))
            gen.standard_normal((17, 17))
            np.fft.ifft2(grid)
            np.exp(small)
            j0(small)
        t1 = time.perf_counter()
        np.square(j0(np.abs(large * (0.3 + 1.2j))))
        t2 = time.perf_counter()
        return 0.5 * ((t1 - t0) / REF_SMALL_S + (t2 - t1) / REF_LARGE_S)

    for line in sys.stdin:
        one_round()
        print(repr(statistics.fmean(one_round() for _ in range(int(line)))), flush=True)


class Probe:
    """The probe process, open while in a `with` block."""

    def __init__(self):
        self._proc = None

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.slowdown(1)  # the first round pays for imports and page faults
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def slowdown(self, rounds: int = PROBE_ROUNDS) -> float:
        """Current slowdown, the mean over `rounds` rounds."""
        self._proc.stdin.write(f"{rounds}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"probe process ended with code {self._proc.wait()}")
        return float(line)


class Sampler:
    """Samples `probe` every INTERVAL_S while active (a context manager)."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.samples: list[tuple[float, float]] = []  # (time, slowdown)
        self.busy: list[tuple[float, float]] = []  # intervals spent sampling
        self._previous = None
        self._in_tick = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._in_tick:
            return
        self._in_tick = True
        t0 = time.perf_counter()
        try:
            self.samples.append((t0, self.probe.slowdown(1)))
        finally:
            self.busy.append((t0, time.perf_counter()))
            self._in_tick = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def sampled_s(self, t0: float, t1: float) -> float:
        """Time the sampler itself took inside [t0, t1]."""
        return sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in self.busy)

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean slowdown sampled within one interval of [t0, t1]."""
        near = [s for t, s in self.samples if t0 - INTERVAL_S <= t <= t1 + INTERVAL_S]
        if not near:  # the op ran between two ticks
            near = [min(self.samples, key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))[1]]
        return statistics.fmean(near)


if __name__ == "__main__":
    serve()
