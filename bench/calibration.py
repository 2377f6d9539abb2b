"""Reference-speed seconds: op times corrected for the machine's speed.

The CPU this benchmark was built on changes speed by up to half again,
for tens of seconds at a time, under load from outside the process.
Raw op times of one workload spread by about 35% across 15-second runs,
which no affordable run length averages out.  So a fixed pure-Python
kernel runs after every timed op, and each raw time is multiplied by
CAL_REF_S over the mean kernel time before and after the op.  The kernel
does not touch dtm, so a change to dtm moves the scaled times by the same
factor as the raw ones.

The kernel must run on the core that ran the timed work, so a child
process times its own kernel runs (see setup_probe.py).
"""

import time

CAL_REF_S = 0.005  # the kernel's time on an uncontended core of that machine


def _kernel() -> tuple:
    """Fixed work shaped like a jet kernel: Cauchy products on tuples."""
    n = 60
    b = tuple(1.0 / (i + 1) for i in range(n + 1))
    for _ in range(40):
        out = [0.0] * (n + 1)
        for i in range(n + 1):
            bi = b[i]
            for j in range(n + 1 - i):
                out[i + j] += bi * b[j]
        b = tuple(x * 0.5 for x in out)
    return b


def calibrate() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(raw: float, before: float, after: float) -> float:
    """Reference-speed seconds of a raw time bracketed by two kernel runs."""
    return raw * CAL_REF_S / ((before + after) / 2)


class SpeedScale:
    """Scales successive timed spans, sharing each kernel run between two."""

    def __init__(self):
        self.last = calibrate()

    def scale(self, raw: float) -> float:
        """Scale a time measured since the previous call."""
        after = calibrate()
        scaled = scale(raw, self.last, after)
        self.last = after
        return scaled
