"""Smoke test of the benchmark itself, at ``tiny`` scale.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced, checks that each
metric BENCHMARK.json names is printed with its unit, and checks that a
result corrupted in the store trips the digest check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "tiny",
         "--seconds", "0", *extra],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric_with_its_unit(workload: str, trace: int) -> None:
    result = _bench("--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float))


def _corrupt_one_result(store: Path) -> None:
    """Rewrite one cached cell result with a different MPKI."""
    for path in sorted(store.glob("??/*.json")):
        blob = json.loads(path.read_text(encoding="utf-8"))
        segments = blob.get("result", {}).get("segments")
        if segments:
            segments[0]["mpki"] += 1.0
            path.write_text(json.dumps(blob), encoding="utf-8")
            return
    raise AssertionError(f"no cell result found under {store}")


def test_corrupted_result_trips_the_digest_check(monkeypatch) -> None:
    args = argparse.Namespace(workload="fig6-grid", seed=run.DEFAULT_SEED,
                              seconds=0, trace=0, scale="tiny")
    bench = run.Bench(args)
    cold_phase = bench.phase
    phases = []

    def phase(store, *rest):
        if phases:  # the warm phase reads what the cold phase stored
            _corrupt_one_result(store)
        phases.append(store)
        return cold_phase(store, *rest)

    monkeypatch.setattr(bench, "phase", phase)
    try:
        with pytest.raises(run.BenchmarkError, match="warm results differ"):
            bench.sample()
    finally:
        bench.close()
    with pytest.raises(run.BenchmarkError, match="pinned"):
        run.check_pin("fig6-grid", "tiny", run.DEFAULT_SEED, "0" * 64)
