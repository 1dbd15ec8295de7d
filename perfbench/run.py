"""End-to-end benchmark over the paper's figure grids.

    python3 perfbench/run.py --workload fig6-grid --seed 2017 --seconds 30 --trace 0

Run from the root of a checkout.  Each sample runs the workload cold,
against a fresh empty store, and then warm three times, against the
store the cold run filled; each phase runs in a fresh interpreter
(phase.py), as an invocation of a command would.  Samples repeat until ``--seconds`` of
them have run.  ``--trace 0`` prints the end-to-end metrics (medians
over the samples); ``--trace 1`` makes one untraced sample and one
traced sample and prints the per-layer split of the traced one.

Every phase's simulated results must reproduce the same digest, and at
the default seed the digest pinned in pins.json; a mismatch fails the
run.  The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: Workload names and the scale each runs at; README.md says why.  The
#: workload functions live in workloads.py, which imports the program,
#: so this file names them itself to check first that the program is
#: there.
SCALES = {"fig6-grid": "tiny", "fig3-search": "small", "fig4-mix": "tiny"}
DEFAULT_SEED = 2017
#: Fewest interpreter starts ``setup_s`` is the median of; every phase
#: of every sample is one, and short runs add engine-only starts.
SETUP_SAMPLES = 5
#: Warm reruns per sample, each a new process; ``warm_s`` takes their
#: median, since a warm rerun is short and one alone is noisy.
WARM_RUNS = 3
#: Seconds one phase may take before the run is abandoned.
PHASE_TIMEOUT_S = 120
#: A traced run must attribute at least this share of its wall time.
MIN_COVERAGE = 0.9



class BenchmarkError(Exception):
    """The program's outputs or the run's own checks failed."""


def calibration_s() -> float:
    """Best of three timings of a fixed pure-Python loop (host drift)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


def machine_facts() -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "numba": has_numba}


def dir_mb(path: Path) -> float:
    total = sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return total / 1e6


class Bench:
    """One benchmark run: its arguments, clean environment and scratch."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.scale = args.scale or SCALES[args.workload]
        self.tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        # Inherited REPRO_* knobs would change what runs; the workload
        # passes everything it needs explicitly.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(self.tmp)
        self._serial = 0

    def close(self) -> None:
        """Remove this run's scratch, and its parent once no run uses it."""
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass

    def _fresh(self, prefix: str) -> Path:
        self._serial += 1
        path = self.tmp / f"{prefix}{self._serial}"
        path.mkdir()
        return path

    def _phase(self, extra: List[str]) -> subprocess.CompletedProcess:
        command = [sys.executable, str(HERE / "phase.py"),
                   "--workload", self.args.workload,
                   "--scale", self.scale] + extra
        try:
            done = subprocess.run(command, env=self.env, cwd=str(ROOT),
                                  capture_output=True, text=True,
                                  timeout=PHASE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"phase {extra[:2]} ran over "
                                 f"{PHASE_TIMEOUT_S} s") from None
        if done.returncode != 0:
            raise BenchmarkError(f"phase {extra[:2]} exited {done.returncode}:"
                                 f"\n{done.stderr[-2000:]}")
        return done

    def ready_setup_s(self) -> float:
        """Time from interpreter start until the engine is ready."""
        started = time.perf_counter()
        done = self._phase(["--store", str(self._fresh("ready")), "--ready"])
        return float(done.stdout.strip().splitlines()[-1]) - started

    def phase(self, store: Path, mode: str = "plain",
              rec: Path = None) -> Dict[str, object]:
        """Run one phase; adds its set-up time and its elapsed time, from
        interpreter start until the workload's results are in."""
        out = self.tmp / f"phase{self._serial}-{time.perf_counter_ns()}.json"
        extra = ["--seed", str(self.args.seed), "--store", str(store),
                 "--out", str(out), "--mode", mode]
        if rec is not None:
            extra += ["--rec", str(rec)]
        started = time.perf_counter()
        self._phase(extra)
        result = json.loads(out.read_text(encoding="utf-8"))
        if result["telemetry"]:
            raise BenchmarkError("repro.obs telemetry was on during a phase")
        result["setup_s"] = result["start"] - started
        result["elapsed_s"] = result["end"] - started
        result["wall_s"] = result["end"] - result["start"]
        return result

    def sample(self, mode: str = "plain", rec: Path = None, warm_runs: int = 1):
        """Cold, then warm reruns, against one fresh store:
        (cold phase, warm phases, store MB after the cold phase)."""
        store = self._fresh("store")
        cold = self.phase(store, mode, rec)
        store_mb = dir_mb(store)
        warms = [self.phase(store, mode, rec) for _ in range(warm_runs)]
        shutil.rmtree(store)
        if any(warm["digest"] != cold["digest"] for warm in warms):
            raise BenchmarkError("warm results differ from cold results")
        return cold, warms, store_mb


def check_pin(workload: str, scale: str, seed: int, found: str) -> None:
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    if seed != pins["default_seed"]:
        return
    pinned = pins["digests"].get(workload, {}).get(scale)
    if pinned is not None and pinned != found:
        raise BenchmarkError(f"result digest {found[:16]} differs from the "
                             f"pinned {pinned[:16]} ({workload}, {scale})")


def run_untraced(bench: Bench):
    samples = []
    started = time.perf_counter()
    while not samples or time.perf_counter() - started < bench.args.seconds:
        calib = calibration_s()
        cold, warms, store_mb = bench.sample(warm_runs=WARM_RUNS)
        warm_s = statistics.median(warm["elapsed_s"] for warm in warms)
        samples.append((cold, warms, store_mb, warm_s))
        print(f"sample cold_s={cold['elapsed_s']:.4f} warm_s={warm_s:.4f}"
              f" peak_rss_mb={cold['peak_rss_mb']:.1f} store_mb={store_mb:.3f}"
              f" calib_s={calib:.5f} digest={cold['digest'][:16]}", flush=True)
    phases = [phase for cold, warms, _, _ in samples for phase in [cold] + warms]
    digests = {phase["digest"] for phase in phases}
    if len(digests) != 1:
        raise BenchmarkError("results differ between samples of one seed")
    check_pin(bench.args.workload, bench.scale, bench.args.seed, digests.pop())
    setups = [phase["setup_s"] for phase in phases]
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.ready_setup_s())
    values = {
        "setup_s": statistics.median(setups),
        "cold_s": statistics.median(s[0]["elapsed_s"] for s in samples),
        "warm_s": statistics.median(s[3] for s in samples),
        "peak_rss_mb": statistics.median(
            max(p["peak_rss_mb"] for p in [s[0]] + s[1]) for s in samples),
        "store_mb": statistics.median(s[2] for s in samples),
    }
    return phases, values


def run_traced(bench: Bench):
    from layers import layer_metrics
    from tracer import load

    counted = bench._fresh("count")
    base_cold, (base_warm,), _ = bench.sample("count", counted)
    traced = bench._fresh("trace")
    cold, (warm,), _ = bench.sample("trace", traced)
    spans, counts = load(traced)
    _, base_counts = load(counted)
    for path in ("kernel", "reference"):
        if counts.get(path, 0) != base_counts.get(path, 0):
            raise BenchmarkError(
                f"traced run made {counts.get(path, 0)} {path} Stage-2 "
                f"replays, untraced {base_counts.get(path, 0)}")
    if cold["digest"] != base_cold["digest"]:
        raise BenchmarkError("traced results differ from untraced results")
    check_pin(bench.args.workload, bench.scale, bench.args.seed, cold["digest"])

    reports = {key: cold["reports"][key] + warm["reports"][key]
               for key in cold["reports"]}
    values = layer_metrics(spans, counts, reports,
                           [(cold["start"], cold["end"]),
                            (warm["start"], warm["end"])],
                           root_pids={cold["pid"], warm["pid"]})
    untraced_s = base_cold["wall_s"] + base_warm["wall_s"]
    values["trace_overhead"] = (cold["wall_s"] + warm["wall_s"]) / untraced_s - 1
    if values["span_coverage"] < MIN_COVERAGE:
        raise BenchmarkError(f"spans cover {values['span_coverage']:.1%} of "
                             f"the traced wall time (< {MIN_COVERAGE:.0%})")
    print(f"traced cold_s={cold['wall_s']:.4f} untraced cold_s="
          f"{base_cold['wall_s']:.4f} coverage={values['span_coverage']:.4f}",
          flush=True)
    return [base_cold, base_warm, cold, warm], values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="",
                        help="override the workload's scale (tiny for the "
                             "smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    bench = Bench(args)
    print("machine " + json.dumps(machine_facts()), flush=True)
    try:
        runner = run_traced if args.trace else run_untraced
        phases, values = runner(bench)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    # BENCHMARK.json names the metrics each mode prints, with their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer" if args.trace else "end_to_end"]
    failed = sum(p["reports"]["failed"] for p in phases)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p["reports"]["cells"] for p in phases),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
