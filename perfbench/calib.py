"""Reference-speed scaling for times measured on a shared host.

Times are CPU time of the process, reported at a reference speed: each is
multiplied by CALIBRATION_REF_S / (CPU time of calibrate()), with
calibrate() run just before and just after the timed work and the two
averaged. On a 2-CPU shared host two kinds of noise show. The host's speed
swings: the same op took 165 ms in one minute and 290 ms in the next, CPU
time included, and the scaling cancels most of that. And the process waits
for a CPU that other tenants hold: a 45 ms op's wall-time p95 moved between
54 and 86 ms from run to run and a cold import's wall time doubled, while
their CPU time did not. Changing calibrate() or CALIBRATION_REF_S changes
every reported time.

This module imports nothing but ``time``, so that the set-up probe can use
it without pre-loading modules that the import it measures would load.
"""

import time

CALIBRATION_REF_S = 0.005


def calibrate() -> float:
    """CPU time of a fixed mix of interpreter work: modular powers, tuples, a dict, a list."""
    t0 = time.process_time()
    for n in range(10**12 + 1, 10**12 + 501, 2):
        pow(3, n - 1, n)
    rows = [tuple(i * j % 7 for j in range(6)) for i in range(800)]
    {row: i for i, row in enumerate(rows)}  # built and dropped: dict work only
    cells = [0] * 512
    for i in range(4000):
        cells[i * 7 % 512] += i
    return time.process_time() - t0


def scale(before: float, after: float) -> float:
    """Factor from CPU time to reference time, given the calibrations around the work."""
    return 2 * CALIBRATION_REF_S / (before + after)
