"""exactcft benchmark: one workload, run as a closed loop of CLI processes.

    python3 cftbench/run.py --workload sixpoint --seed 1 --seconds 20 --trace 0

Each job is a fresh `python -m exactcft.cli ...` process with
PYTHONPATH=src, started only after the previous one has ended (one client,
one job at a time). A pass runs the workload's job list once; passes repeat
until --seconds have elapsed. Every output is checked afterwards, outside
the timed interval (see checks.py). The last stdout line is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
import traced_cli
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_ARGV = ["exotic", "coeff", "--hplus", "2", "--hminus", "1", "--structure", "H"]
SETUP_SAMPLES = 11
JOB_TIMEOUT_S = 150
REFERENCE_CAL_S = 0.014  # calibration CPU time that defines one reference second


@dataclass
class JobRun:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    stdout: bytes
    stderr: str
    speed: float = 1.0  # host speed around the job, relative to the reference


def calibrate() -> float:
    """CPU seconds of a fixed exact-arithmetic loop that does not use exactcft.

    Timed on the jobs' CPU right before and after every job, it tracks the
    speed of the host, which on a shared machine swings by up to 2x within
    minutes. Times scaled by REFERENCE_CAL_S / calibrate() are reference
    seconds, comparable between runs made at different host speeds.
    """
    t0 = time.process_time()
    for _ in range(12):
        acc = Fraction(0)
        for k in range(1, 120):
            acc += Fraction(k, k * k + 1) * Fraction(k + 2, 3)
    return time.process_time() - t0


@dataclass
class Pass:
    wall_s: float
    runs: dict[str, JobRun]
    layer_stats: dict[str, dict] = field(default_factory=dict)


def run_process(argv: list[str], out_path: Path, err_path: Path, env: dict) -> JobRun:
    """Run one process to its end; CPU and max RSS come from wait4."""
    t0 = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    return JobRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                  out_path.read_bytes(), err_path.read_text(encoding="utf-8", errors="replace"))


class Bench:
    def __init__(self, workload: str, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.jobs = workloads.build(workload, seed, tmp)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.verdicts: dict[tuple, str | None] = {}
        self.reference: dict[tuple, bytes] = {}
        self.last_cal = calibrate()

    def cli(self, args: list[str], name: str, stats: Path | None = None) -> JobRun:
        if stats is None:
            argv = [sys.executable, "-m", "exactcft.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(stats), *args]
        return run_process(argv, self.tmp / f"{name}.out", self.tmp / f"{name}.err", self.env)

    def timed(self, args: list[str], name: str, stats: Path | None = None) -> JobRun:
        """Run a job between two calibrations and record the host speed."""
        run = self.cli(args, name, stats)
        cal = calibrate()
        run.speed = 2 * REFERENCE_CAL_S / (self.last_cal + cal)
        self.last_cal = cal
        return run

    def run_pass(self, traced: bool) -> Pass:
        runs, layers = {}, {}
        t0 = time.perf_counter()
        for job in self.jobs:
            stats = self.tmp / f"{job.name}.trace.json" if traced else None
            runs[job.name] = self.timed(job.argv, job.name, stats)
            if traced:
                layers[job.name] = json.loads(stats.read_text(encoding="utf-8"))
        return Pass(time.perf_counter() - t0, runs, layers)

    def reference_cli(self, args: list[str]) -> bytes:
        key = tuple(args)
        if key not in self.reference:
            run = self.cli(args, "reference")
            if run.returncode != 0:
                raise checks.CheckError(f"reference command {args} exited {run.returncode}")
            self.reference[key] = run.stdout
        return self.reference[key]

    def verify(self, p: Pass) -> list[tuple[str, str]]:
        """(job name, reason) for every failed operation of the pass.

        Identical outputs get the verdict of their first check.
        """
        outputs = {n: r.stdout for n, r in p.runs.items()}
        failures = []
        for job in self.jobs:
            run = p.runs[job.name]
            key = (job.name, run.returncode, hashlib.sha256(run.stdout).hexdigest(),
                   run.stderr if job.kind == "fault" else "")
            if key not in self.verdicts:
                ctx = checks.Context(outputs, random.Random(f"{self.seed}:{job.name}"),
                                     self.reference_cli)
                self.verdicts[key] = checks.verdict(job, run.returncode, run.stdout, run.stderr, ctx)
            if self.verdicts[key] is not None:
                failures.append((job.name, self.verdicts[key]))
        return failures

    def setup_times(self) -> tuple[list[float], bool]:
        """Start-up samples of a trivial command, after one warm-up run."""
        samples, ok = [], True
        for k in range(SETUP_SAMPLES + 1):
            run = self.timed(SETUP_ARGV, "setup")
            if run.returncode != 0:
                raise RuntimeError(f"setup command failed (exit {run.returncode}): "
                                   f"{run.stderr.strip()[-500:]}")
            ok = ok and json.loads(run.stdout).get("coefficient") == "2"
            if k:
                samples.append(run.wall_s * run.speed)
        return samples, ok


def pass_metrics(passes: list[Pass]) -> dict:
    """End-to-end metrics of a typical pass: per job, the median over passes.

    Times are in reference seconds (see calibrate). Per-job medians also drop
    the jobs that a burst of CPU steal happened to hit.
    """
    def typical(value) -> list[float]:
        return [statistics.median(value(p.runs[name]) for p in passes) for name in passes[0].runs]

    return {
        "wall_s": (sum(typical(lambda r: r.wall_s * r.speed)), "s"),
        "cpu_s": (sum(typical(lambda r: r.cpu_s * r.speed)), "s"),
        "peak_rss_mib": (max(typical(lambda r: r.maxrss_kib)) / 1024, "MiB"),
    }


def layer_metrics(traced: list[Pass], plain: list[Pass]) -> dict:
    """Per-layer metrics: medians over traced passes of the per-pass totals.

    Span times are raw seconds measured inside the jobs; the tracing
    overhead compares pass totals in reference seconds.
    """
    per_pass = []
    for p in traced:
        totals: dict[str, dict] = {}
        for job_stats in p.layer_stats.values():
            for name, row in job_stats.items():
                t = totals.setdefault(name, {})
                for key, val in row.items():
                    if key in ("max_dim", "max_cells"):
                        t[key] = max(t.get(key, 0), val)
                    else:
                        t[key] = t.get(key, 0) + val
        m: dict[str, tuple[float, str]] = {}
        for name in traced_cli.TARGETS:
            t = totals.get(name, {})
            calls = t.get("calls", 0)
            m[f"{name}.calls"] = (calls, "count")
            m[f"{name}.self_s"] = (t.get("self_s", 0.0), "s")
            if name in traced_cli.ENTRY_POINTS:
                m[f"{name}.time_s"] = (t.get("time_s", 0.0), "s")
            if name == "channels.channel_coefficients":
                m[f"{name}.distinct_ratio"] = (t.get("args", 0) / calls if calls else 0.0, "ratio")
            _, size_key, unit = traced_cli.EXTRAS.get(name, (None, None, None))
            if size_key:
                m[f"{name}.{size_key}"] = (t.get(size_key, 0), unit)
        m["cli.output_bytes"] = (sum(len(r.stdout) for r in p.runs.values()), "bytes")
        per_pass.append(m)
    out = {key: (statistics.median(pm[key][0] for pm in per_pass), unit)
           for key, (_, unit) in per_pass[0].items()}
    def ref_wall(p: Pass) -> float:
        return sum(r.wall_s * r.speed for r in p.runs.values())

    overhead = (statistics.median(ref_wall(p) for p in traced)
                - statistics.median(ref_wall(p) for p in plain))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "exactcft" / "cli.py").is_file():
        print(f"error: no exactcft sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # jobs inherit the affinity, so they run on the CPU the calibration measures
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tmp = ROOT / ".cftbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, tmp)
        setup, setup_ok = bench.setup_times()
        plain: list[Pass] = []
        traced: list[Pass] = []
        start = time.perf_counter()
        while True:
            plain.append(bench.run_pass(traced=False))
            if args.trace:
                traced.append(bench.run_pass(traced=True))
            if time.perf_counter() - start >= args.seconds:
                break
        failures = [f for p in plain + traced for f in bench.verify(p)]
    except (RuntimeError, ValueError) as exc:  # setup failed, or its output is not JSON
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    correct = setup_ok and not any(reason.startswith("wrong output") for _, reason in failures)
    for name, reason in sorted(set(failures)):
        print(f"failed: {name}: {reason}", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(traced, plain)
    else:
        metrics = pass_metrics(plain)
        metrics["setup_s"] = (statistics.median(setup), "s")
    attempted = len(bench.jobs) * len(plain + traced)
    speeds = [r.speed for p in plain + traced for r in p.runs.values()]
    print(f"{args.workload} seed={args.seed}: {len(plain)} plain + {len(traced)} traced passes,"
          f" raw pass walls {[round(p.wall_s, 3) for p in plain + traced]},"
          f" host speed {min(speeds):.2f}-{max(speeds):.2f}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
