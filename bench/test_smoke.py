"""Smoke test of the benchmark: one reduced round per workload.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
traced and untraced, and that the command refuses to run without the
program's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

REDUCED = {
    "solve_highN": lambda workdir: wl.SolveHighN(order=40),
    "paper_session": wl.PaperSession,
    "transform_t2": lambda workdir: wl.TransformT2(n=3),
    "transform_cli": lambda workdir: wl.TransformCli(n=2),
}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_every_metric_emitted(name, trace, tmp_path):
    workload = REDUCED[name](str(tmp_path))
    result, lines = run.run(
        workload, seed=1, seconds=0, trace=trace, setup_repeats=1, exponent_orders=(10, 20)
    )
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1, lines


def test_known_t2_failure_is_flagged():
    workload = wl.TransformT2()
    op = next(op for op in workload.round(np.random.default_rng(1))
              if op.label == wl.T2_KNOWN_FAILURE[0])
    with pytest.raises(wl.Flagged, match="routes disagree"):
        op.check(op.run())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve_highN", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


class _FakeWorkload:
    """Three instant ops: one right, one the program flags, one wrong."""

    name = "solve_highN"
    ops_per_round = 3

    def __init__(self, wrong: bool):
        self.wrong = wrong

    def round(self, rng):
        def flagged(out):
            raise wl.Flagged("reported by the program")

        def judged(out):
            return "contradicts the oracle" if self.wrong else None

        return [
            wl.Op("right", lambda: 1, lambda out: None),
            wl.Op("flagged", lambda: 1, flagged),
            wl.Op("judged", lambda: 1, judged),
        ]


@pytest.mark.parametrize("wrong", [False, True])
def test_flagged_ops_fail_and_wrong_ops_make_the_run_incorrect(wrong):
    result, lines = run.run(_FakeWorkload(wrong), seed=1, seconds=0, trace=False, setup_repeats=1)
    assert result["attempted"] == 3
    assert result["failed"] == (2 if wrong else 1)
    assert result["correct"] is not wrong
