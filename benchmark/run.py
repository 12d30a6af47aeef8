"""Benchmark of the jordanet package, driven from outside through its CLI.

    python3 benchmark/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It writes the seeded inputs, times the
set-up in fresh processes, then runs the workload's ops closed loop with one
client (one op at a time; the next starts when the previous one returned),
checks every answer, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, from each op's CPU
time scaled to a reference host speed by samples of a calibration kernel;
with ``--trace 1`` they are the per-layer ones from spans recorded around
the package's functions (see tracing.py).  README.md in this directory defines every
metric and says why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import gen
from stats import local_means, tail
from tracing import Recorder, install, layer_metrics
from workloads import WORKLOADS, Op, Result, Workload, run_in_process

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
SHOWN_FAILURES = 20

#: Host-speed calibration: rank over Q of a fixed dense 12 x 12 integer
#: matrix, with Fraction arithmetic like the package's own.  CALIBRATIONS
#: samples are taken before every execution; each execution's CPU time is
#: divided by the mean of the samples of the executions within SPEED_WINDOW
#: of it and multiplied by REFERENCE_CALIBRATION_S, about the kernel's CPU
#: time on the host in the README in its fast state.  All reported times
#: are in those units.
CALIBRATION_MATRIX = [[gen.Rng(0, "calibration", f"{i},{j}").choice(gen.DENSE_VALUES)
                       for j in range(12)] for i in range(12)]
REFERENCE_CALIBRATION_S = 0.0025
SPEED_WINDOW = 2
CALIBRATIONS = 3


def calibrate() -> float:
    """CPU seconds of one run of the calibration kernel."""
    start = time.process_time()
    gen.rank(CALIBRATION_MATRIX)
    return time.process_time() - start


def spawn(argv: List[str], out_path: Path, err_path: Path) -> Result:
    """Run a child to completion; its CPU time and peak RSS come from wait4."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    return Result(usage.ru_utime + usage.ru_stime, wall, os.waitstatus_to_exitcode(status),
                  out_path.read_text(), err_path.read_text(), usage.ru_maxrss)


@dataclass
class Execution:
    cpu: float
    wall: float
    calibration: float


class Runner:
    """Executes ops, checks their answers and records each execution."""

    def __init__(self, workload: Workload, ops: List[Op], run_dir: Path):
        self.workload = workload
        self.ops = ops
        self.run_dir = run_dir
        self.executions: List[Execution] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.first_output: Dict[int, str] = {}
        self.child_rss_kb = 0
        self.log: List[dict] = []

    def execute(self, index: int, recorder: Optional[Recorder]) -> Result:
        argv = self.ops[index].argv
        if not self.workload.cold:
            if recorder is None:
                return run_in_process(argv)
            uninstall = install(recorder)
            try:
                return run_in_process(argv)
            finally:
                uninstall()
        if recorder is None:
            command = [sys.executable, "-m", "jordanet.cli", *argv]
        else:
            span_file = self.run_dir / "op_spans.json"
            command = [sys.executable, str(HERE / "child.py"), "trace", str(span_file), *argv]
        result = spawn(command, self.run_dir / "op.out", self.run_dir / "op.err")
        self.child_rss_kb = max(self.child_rss_kb, result.rss_kb)
        if recorder is not None:
            data = json.loads(span_file.read_text())
            offset = len(recorder.spans)
            recorder.spans.extend([name, start, end, parent + offset if parent >= 0 else -1]
                                  for name, start, end, parent in data["spans"])
            recorder.rref_shapes.extend(map(tuple, data["rref_shapes"]))
        return result

    def judge(self, index: int, result: Result) -> Optional[str]:
        if result.code is None or "Traceback (most recent call last)" in result.stderr:
            return "exception: " + result.stderr.strip().splitlines()[-1]
        if result.code != 0:
            documented = "documented" if result.code in (1, 2, 3) else "undocumented"
            return f"exit {result.code} ({documented}): {result.stderr.strip()[-200:]}"
        first = self.first_output.setdefault(index, result.stdout)
        if first != result.stdout:
            return "--json bytes differ from the first run of this input"
        try:
            return self.ops[index].check(json.loads(result.stdout))
        except Exception as exc:  # a malformed report is a failed op, not a crash
            return f"unreadable report: {exc!r}"

    def run_pass(self, order, recorder: Optional[Recorder] = None) -> float:
        """Run the ops in ``order`` once each; returns their summed CPU time."""
        busy = 0.0
        for index in order:
            samples = [calibrate() for _ in range(CALIBRATIONS)]
            calibration = statistics.mean(samples)
            result = self.execute(index, recorder)
            busy += result.cpu
            self.attempted += 1
            if recorder is None:
                self.executions.append(Execution(result.cpu, result.wall, calibration))
            problem = self.judge(index, result)
            if problem:
                self.failures.append(f"{self.ops[index].label}: {problem}")
            self.log.append({"op": self.ops[index].label, "traced": recorder is not None,
                             "cpu_s": result.cpu, "wall_s": result.wall,
                             "calibration_s": samples, "problem": problem})
        return busy

    def normalised(self) -> List[float]:
        """Each execution's CPU seconds at the reference host speed."""
        speed = local_means([e.calibration for e in self.executions], SPEED_WINDOW)
        return [e.cpu * REFERENCE_CALIBRATION_S / s for e, s in zip(self.executions, speed)]

    def digest(self) -> str:
        h = hashlib.sha256()
        for index in sorted(self.first_output):
            h.update(self.first_output[index].encode())
        return h.hexdigest()


def probe_setup(workload: Workload, run_dir: Path, cache_dirs: List[Path]) -> List[float]:
    """Time the set-up once per cache directory, each in a fresh process, and
    scale each time to the reference host speed with calibration samples
    taken just before and after it."""
    times = []
    for cache in cache_dirs:
        cache.mkdir(parents=True, exist_ok=True)
        os.environ["JORDANET_CACHE_DIR"] = str(cache)
        samples = [calibrate() for _ in range(CALIBRATIONS)]
        result = spawn([sys.executable, str(HERE / "child.py"), "setup", workload.name],
                       run_dir / "probe.out", run_dir / "probe.err")
        samples += [calibrate() for _ in range(CALIBRATIONS)]
        if result.code != 0:
            raise RuntimeError(f"set-up probe failed: {result.stderr.strip()}")
        seconds = float(result.stdout.strip().splitlines()[-1])
        times.append(seconds * REFERENCE_CALIBRATION_S / statistics.mean(samples))
    return times


def host_record(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit(), "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: Workload, seed: int, seconds: int, traced: bool) -> int:
    run_dir = WORK / f"{workload.name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs, cache_dir = run_dir / "inputs", run_dir / "cache"
    inputs.mkdir(parents=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    sys.path.insert(0, str(SRC))
    # One CPU for the benchmark and its children, so that the calibration
    # samples measure the CPU the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    ops = workload.build(seed, inputs, ROOT)
    # The first probe fills the run's cache; every other probe gets an empty one.
    probe_caches = [cache_dir] + [run_dir / f"probe{k}-cache" for k in range(1, SETUP_PROBES)]
    setup_samples = probe_setup(workload, run_dir, probe_caches[:1 if traced else SETUP_PROBES])
    os.environ["JORDANET_CACHE_DIR"] = str(cache_dir)
    if not workload.cold:
        workload.prepare(ROOT)

    runner = Runner(workload, ops, run_dir)
    order_rng = gen.Rng(seed, workload.name, "order")

    def order(chosen: List[int]) -> List[int]:
        return order_rng.shuffled(chosen) if workload.cold else chosen

    wall_start = time.perf_counter()
    if traced:
        # Each op runs untraced and then traced, back to back, so that the
        # overhead compares two runs made at nearly the same host speed.
        passes = 1
        recorder = Recorder()
        untraced_busy = traced_busy = 0.0
        for index in order(list(range(len(ops)))):
            untraced_busy += runner.run_pass([index])
            traced_busy += runner.run_pass([index], recorder)
    else:
        # Every pass runs the repeated ops; the long ops, run once, are dealt
        # out over the passes.
        passes = workload.passes(seconds)
        repeated = [i for i, op in enumerate(ops) if op.repeat]
        once = [i for i, op in enumerate(ops) if not op.repeat]
        for k in range(passes):
            runner.run_pass(order(repeated + once[k::passes]))
    wall = time.perf_counter() - wall_start
    with open(run_dir / "ops.jsonl", "w") as out:
        out.writelines(json.dumps(entry) + "\n" for entry in runner.log)

    name = workload.name
    attempted, failed = runner.attempted, len(runner.failures)
    calibrations = [e.calibration for e in runner.executions]
    record = host_record(seed)
    record.update(workload=name, trace=int(traced), passes=passes, ops=len(ops),
                  executions=len(runner.executions), wall_s=round(wall, 3),
                  client="closed loop, 1 client",
                  calibration_ms=[round(1000 * min(calibrations), 3),
                                  round(1000 * statistics.median(calibrations), 3),
                                  round(1000 * max(calibrations), 3)])
    print(f"# host {json.dumps(record)}")
    if workload.cold:
        print(f"# cache JORDANET_CACHE_DIR={cache_dir.relative_to(ROOT)}: empty before set-up, "
              "filled by set-up's chow_det_generic(3), read by every timed chow --generic-n3")
    else:
        print(f"# cache JORDANET_CACHE_DIR={cache_dir.relative_to(ROOT)}: empty; "
              "no op of this workload reads it")
    print(f"{name} json_sha256 = {runner.digest()}  ({len(runner.first_output)} distinct outputs)")
    for problem in runner.failures[:SHOWN_FAILURES]:
        print(f"{name} FAILED {problem}")
    print(f"{name} fail_ratio = {failed / attempted!r} ratio  ({failed} of {attempted} ops)")

    if traced:
        with open(run_dir / "spans.json", "w") as out:
            json.dump({"spans": recorder.spans, "rref_shapes": recorder.rref_shapes}, out)
        metrics = {k: metric(v, "s" if k.endswith("_s") else "count")
                   for k, v in layer_metrics(recorder.spans, recorder.rref_shapes).items()}
        metrics["trace.coverage"]["unit"] = "ratio"
        metrics["trace.overhead_s"] = metric(traced_busy - untraced_busy, "s")
        metrics["trace.overhead_ratio"] = metric(traced_busy / untraced_busy - 1.0, "ratio")
        for key, value in metrics.items():
            print(f"{name} {key} = {value['value']!r} {value['unit']}")
    else:
        latencies = runner.normalised()
        tail_value, percentile = tail(latencies)
        rss_kb = runner.child_rss_kb if workload.cold else \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "ops_per_s": metric(len(latencies) / sum(latencies), "ops/s"),
            "latency_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
            "latency_tail_ms": metric(1000 * tail_value, "ms"),
            "peak_rss_mb": metric(rss_kb / 1024, "MB"),
        }
        notes = {
            "setup_s": f"median of {SETUP_PROBES} fresh processes",
            "ops_per_s": f"{len(latencies)} executions / their summed time",
            "latency_p50_ms": f"over all {len(latencies)} executions of {passes} passes",
            "latency_tail_ms": f"p{percentile:.1f} of those {len(latencies)} executions, "
                               "10 beyond it",
            "peak_rss_mb": "max over op processes" if workload.cold else "benchmark process",
        }
        for key, value in metrics.items():
            print(f"{name} {key} = {value['value']!r} {value['unit']}  ({notes[key]})")
        walls = [e.wall for e in runner.executions]
        print(f"# unscaled: wall p50 {1000 * statistics.median(walls):.1f} ms, "
              f"wall sum {sum(walls):.2f} s, CPU sum {sum(e.cpu for e in runner.executions):.2f} s; "
              f"scaled sum {sum(latencies):.2f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int, traced: bool) -> int:
    """Every workload in its own process; metrics are prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # ops name their inputs relative to the checkout
    if not (SRC / "jordanet" / "cli.py").is_file():
        print(f"error: no jordanet sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
