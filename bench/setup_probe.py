"""Time one fresh-process set-up, in raw and reference-speed seconds.

    python3 bench/setup_probe.py WORKLOAD

The timed span starts before ``dtm`` is imported and ends once the
workload's inputs are loaded (problem files read and parsed, or corpus
terms parsed); interpreter start-up is not part of it.  The calibration
kernel runs in this process before and after the span.
"""

import os
import sys
import time

from calibration import calibrate, scale

before = calibrate()
start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402  (imports dtm)

workloads.load_inputs(sys.argv[1])
raw = time.perf_counter() - start
print(raw, scale(raw, before, calibrate()))
