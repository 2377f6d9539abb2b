"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: solve_highN, paper_session, transform_t2, transform_cli (see
workloads.py and README.md).  One process, no threads, one client in a
closed loop: each op starts when the previous one has returned.  Ops run
in whole rounds until their summed raw time reaches --seconds; every op's
output is judged by an oracle computed outside the timed region.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run.  The report lines name each metric with its unit; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  An op that raises an error of the program's own
taxonomy (DtmError), or for which the program reports a failure itself
(workloads.Flagged), counts as failed; an op whose output contradicts its
oracle without the program saying so counts as failed and makes the run
incorrect.

Times are reported in reference-speed seconds (see calibration.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import SpeedScale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# The tail percentile of each workload: the highest of p75, p90 and p95
# that leaves at least ten samples beyond it in a 20-second run.  It is
# fixed so that it names the same statistic on every run.
TAIL_PERCENTILE = {
    "solve_highN": 75,
    "paper_session": 90,
    "transform_t2": 75,
    "transform_cli": 75,
}
SETUP_REPEATS = 9
EXPONENT_PROBLEM = "ex7"
EXPONENT_ORDERS = (40, 80)
EXPONENT_REPEATS = 5
SETUP_TRACE_REPEATS = 5

END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_ops_per_s": "1/s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_TIMED_SPANS = (
    "series.mul", "series.div", "series.elementary", "series.linear",
    "expr.eval_series", "solver.step", "solver.equation_series",
    "expr.simplify", "expr.diff_sym", "expr.eval_numeric",
)
_SELF_ONLY_SPANS = (
    "transform.dt_recurrence", "transform.dt_compose", "transform.instantiate",
    "expr.to_text", "reference.rk45_solve", "tables.run_table",
    "tables.write_csv", "cli.main",
)
_COUNTERS = {
    "series.madds": "madds/op",
    "series.objects": "objects/op",
    "transform.fn_nodes": "nodes/op",
    "expr.to_text.bytes": "B/op",
    "cli.stdout_bytes": "B/op",
    "reference.rhs_evals": "evals/op",
    "reference.steps_accepted": "steps/op",
    "reference.steps_rejected": "steps/op",
    "tables.cells": "cells/op",
    "tables.cells_failed": "cells/op",
}
PER_LAYER = {
    **{f"{s}.calls": "calls/op" for s in _TIMED_SPANS},
    **{f"{s}.self_s": "s/op" for s in _TIMED_SPANS + _SELF_ONLY_SPANS},
    **_COUNTERS,
    "solver.evals_per_coeff": "evals/coeff",
    "solver.solve.order_exponent": "log2",
    "transform.dt_recurrence.per_op": "calls/op",
    "expr.parse.self_s": "s/load",
    "solver.load_problem.self_s": "s/load",
    "trace.overhead": "ratio",
    "meta.src_lines": "lines",
}

# counts that must repeat bit for bit from one traced round to the next
EXACT_COUNTS = (
    "series.madds", "solver.equation_series.calls", "transform.fn_nodes",
    "expr.to_text.bytes", "tables.cells",
)


class Loop:
    """Closed loop with one client over a workload's rounds."""

    def __init__(self, workload, rng):
        self.workload = workload
        self.rng = rng
        self.speed = SpeedScale()
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.errors: dict[str, int] = {}
        self.wrong: list[str] = []
        self.busy = 0.0  # scaled op time, for throughput
        self.busy_raw = 0.0  # unscaled op time, which bounds the run

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + len(self.wrong)

    def round(self, tracer=None, record: bool = True) -> tuple[float, float]:
        """Run one round; returns its summed op time, scaled and raw."""
        from dtm.errors import DtmError
        from workloads import Flagged

        spent = spent_raw = 0.0
        for op in self.workload.round(self.rng):
            gc.collect()  # each op starts from a clean heap, as a fresh command would
            error = None
            if tracer is not None:
                tracer.install()
            start = time.perf_counter()
            try:
                out = op.run()
            except DtmError as exc:
                error = exc
            finally:
                raw = time.perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
            elapsed = self.speed.scale(raw)
            spent += elapsed
            spent_raw += raw
            verdict = None
            if error is None:
                if tracer is not None and hasattr(out, "stdout"):
                    tracer.counts["cli.stdout_bytes"] += out.stdout.bytes
                try:
                    verdict = op.check(out)
                except Flagged as exc:
                    error = exc
            if not record:
                continue
            self.latencies.append(elapsed)
            self.raw_latencies.append(raw)
            if error is not None:
                reason = error if isinstance(error, Flagged) else type(error).__name__
                key = f"{op.label}: {reason}"
                self.errors[key] = self.errors.get(key, 0) + 1
            elif verdict is not None:
                self.wrong.append(f"{op.label}: {verdict}")
        if record:
            self.busy += spent
            self.busy_raw += spent_raw
        return spent, spent_raw


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Harrell-Davis estimate of the q-th percentile, and the samples beyond it.

    The estimate weights every order statistic by a Beta distribution,
    which makes it much steadier than a single order statistic when the
    ops of a round take very different times.
    """
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(values)
    n = len(ordered)
    edges = betainc(q / 100 * (n + 1), (1 - q / 100) * (n + 1), np.arange(n + 1) / n)
    value = float(np.dot(np.diff(edges), ordered))
    return value, int(np.sum(ordered > value))


def setup_seconds(workload: str, repeats: int) -> float:
    """Median set-up time of fresh processes (import dtm, load inputs)."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def order_exponent(orders, repeats: int) -> float:
    """log2 of t(N=hi)/t(N=lo) for one untraced solve, medians of repeats."""
    from dtm import solver

    spec = solver.load_bundled(EXPONENT_PROBLEM)
    speed = SpeedScale()
    times: dict[int, list[float]] = {n: [] for n in orders}
    for _ in range(repeats):
        for n in orders:
            gc.collect()
            start = time.perf_counter()
            solver.solve(spec, order=n)
            times[n].append(speed.scale(time.perf_counter() - start))
    lo, hi = (statistics.median(times[n]) for n in orders)
    return math.log2(hi / lo)


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (SRC / "dtm").rglob("*.py")
    )


def _exact_counts(tracer) -> tuple:
    return tuple(
        tracer.calls(name[: -len(".calls")]) if name.endswith(".calls")
        else tracer.counts[name]
        for name in EXACT_COUNTS
    )


def end_to_end(loop: Loop, workload: str, setup_repeats: int) -> tuple[dict, list[str]]:
    # read before percentile() imports scipy, which is not the program's memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = len(loop.latencies)
    ok = ops - loop.failed
    q = TAIL_PERCENTILE[workload]
    p50, _ = percentile(loop.latencies, 50)
    tail, beyond = percentile(loop.latencies, q)
    values = {
        "latency_p50_s": p50,
        "latency_tail_s": tail,
        "throughput_ops_per_s": ok / loop.busy,
        "success_rate": ok / ops,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_seconds(workload, setup_repeats),
    }
    raw_p50, _ = percentile(loop.raw_latencies, 50)
    notes = [
        f"latency_tail_s is p{q} of {ops} samples, {beyond} beyond it",
        f"unscaled latency p50 {raw_p50:.6g} s; times are reference-speed seconds, "
        f"scaled by {loop.busy / loop.busy_raw:.4g} on average",
        f"error_rate = {loop.failed}/{ops} = {loop.failed / ops:.6g} (1 - success_rate)",
        f"setup_s is the median of {setup_repeats} fresh processes",
    ]
    return values, notes


def per_layer(loop: Loop, workload, seconds: float, exponent_orders) -> tuple[dict, list[str], bool]:
    import workloads as wl
    from tracer import OP_TARGETS, SETUP_TARGETS, Tracer

    setup = Tracer(SETUP_TARGETS)
    speed = SpeedScale()
    start = time.perf_counter()
    with setup:
        for _ in range(SETUP_TRACE_REPEATS):
            wl.load_inputs(workload.name)
    raw = time.perf_counter() - start
    setup_factor = speed.scale(raw) / raw
    exponent = order_exponent(exponent_orders, EXPONENT_REPEATS)

    tracer = Tracer(OP_TARGETS)
    untraced, traced, traced_raw, rounds = [], [], [], []
    while loop.busy_raw < seconds or len(traced) < 2:
        untraced.append(loop.round()[0])
        before = _exact_counts(tracer)
        scaled, raw = loop.round(tracer)
        traced.append(scaled)
        traced_raw.append(raw)
        rounds.append(tuple(b - a for a, b in zip(before, _exact_counts(tracer))))
    # self times are raw; bring them to reference speed like the op times
    factor = sum(traced) / sum(traced_raw)

    ops = len(traced) * workload.ops_per_round
    values = {}
    for span in _TIMED_SPANS:
        values[f"{span}.calls"] = tracer.calls(span) / ops
    for span in _TIMED_SPANS + _SELF_ONLY_SPANS:
        values[f"{span}.self_s"] = tracer.self_time(span) * factor / ops
    for name in _COUNTERS:
        values[name] = tracer.counts[name] / ops
    coefficients = tracer.counts["solver.coefficients"]
    values["solver.evals_per_coeff"] = (
        tracer.calls("solver.equation_series") / coefficients if coefficients else 0.0
    )
    values["solver.solve.order_exponent"] = exponent
    values["transform.dt_recurrence.per_op"] = tracer.calls("transform.dt_recurrence") / ops
    for span in ("expr.parse", "solver.load_problem"):
        values[f"{span}.self_s"] = setup.self_time(span) * setup_factor / SETUP_TRACE_REPEATS
    values["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    values["meta.src_lines"] = src_lines()

    repeat = all(r == rounds[0] for r in rounds)
    notes = [
        f"{len(traced)} traced and {len(untraced)} untraced rounds; per-op values "
        f"are over the {ops} traced ops",
        f"order exponent from {EXPONENT_PROBLEM} at N = {exponent_orders[0]} and "
        f"{exponent_orders[1]}",
        "exact counts per round: " + ", ".join(
            f"{name}={count}" for name, count in zip(EXACT_COUNTS, rounds[0])
        ) + (" (repeat)" if repeat else " (DO NOT REPEAT across rounds)"),
    ]
    return values, notes, repeat


def run(workload, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS, exponent_orders=EXPONENT_ORDERS) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and report lines."""
    import numpy as np

    loop = Loop(workload, np.random.default_rng(seed))
    loop.round(record=False)  # warm-up
    repeat = True
    if trace:
        values, notes, repeat = per_layer(loop, workload, seconds, exponent_orders)
        units = PER_LAYER
    else:
        loop.round()
        while loop.busy_raw < seconds:
            loop.round()
        values, notes = end_to_end(loop, workload.name, setup_repeats)
        units = END_TO_END
    result = {
        "correct": not loop.wrong and repeat,
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    lines = [f"workload {workload.name}: {len(loop.latencies)} ops in {loop.busy:.3f} "
             "reference-speed seconds of op time"]
    errors = sum(loop.errors.values())
    lines.append(
        f"  oracle: {len(loop.latencies) - loop.failed} right, {len(loop.wrong)} wrong, "
        f"{errors} failed as reported by the program"
    )
    lines += [f"  failed {key} x{count}" for key, count in sorted(loop.errors.items())]
    lines += [f"  WRONG {reason}" for reason in loop.wrong]
    lines += [f"  {name} = {values[name]:.6g} {unit}" for name, unit in units.items()]
    lines += [f"  note: {note}" for note in notes]
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help=", ".join(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dtm" / "__init__.py").is_file():
        print(f"bench: no dtm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one core for the ops, the calibration kernel and the set-up probes,
    # so that the kernel sees the speed the timed work saw
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import numpy as np

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    workdir = BENCH / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = wl.build(args.workload, str(workdir))
        result, lines = run(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    print("\n".join(lines))
    print(
        f"meta: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} seed={args.seed} src_lines={src_lines()}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
