#!/usr/bin/env python3
"""End-to-end benchmark of the Jigsaw pipeline (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch --seed 1 --seconds 20 --trace 0

It builds perfbench/ (and the library under test, from src/) with CMake,
simulates the workload's capture from --seed, writes it as .jigt traces,
runs the workload through DeploymentMonitor, checks the monitor's output
log against the reference stream, and prints one JSON object as the last
line of standard output:

    {"correct": true, "attempted": 5, "failed": 0,
     "metrics": {"events_per_s": {"value": 791000.1, "unit": "events/s"}, ...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json; --trace 1
makes the traced run instead and reports every per-layer metric.  Builds
and scratch files go under $CARGO_TARGET_DIR (default .bench_build).
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# Each workload runs over several independent simulated days of the same
# building (day d of seed s is simulated with seed 16*s + d; the clients
# keep the same desks every day).  The channel-11 radio of pod 0 hears a
# handful of bursts a minute, and when it does decides when the merge may
# release output: one day is one sample of that uneven process, so a run
# needs several.  restart reuses the batch days.
WORKLOADS = {
    "batch": {"days": 3, "capture_s": 120},
    "live": {"days": 12, "capture_s": 30, "speedup": 20, "period_ms": 10},
    # Restart over the first 70% of each batch day.
    "restart": {"days": 3, "capture_s": 120, "fraction": 0.7},
}
MAX_SIM_PROCS = 3       # simulations run in parallel (untimed), ~300 MB each
BUILD_TIMEOUT_S = 840   # the first run of a checkout builds
RUN_BUDGET_S = 170      # everything after the build must fit in this


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, deadline):
        self.deadline = deadline

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 1:
            raise BenchError("out of time")
        return left

    def __call__(self, cmd):
        """Runs one perfbench process; returns its last-line JSON."""
        return self.parallel([cmd], 1)[0]

    def parallel(self, cmds, width):
        """Runs perfbench processes, `width` at a time, in order."""
        results = []
        for start in range(0, len(cmds), width):
            procs = [subprocess.Popen([str(c) for c in cmd],
                                      stdout=subprocess.PIPE, text=True)
                     for cmd in cmds[start:start + width]]
            try:
                outs = [p.communicate(timeout=self.remaining())[0]
                        for p in procs]
            except (subprocess.TimeoutExpired, BenchError) as e:
                for p in procs:
                    p.kill()
                    p.wait()
                raise BenchError("timed out: %s" % cmds[start][1]) from e
            for cmd, proc, out in zip(cmds[start:start + width], procs, outs):
                lines = out.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    raise BenchError("%s exited %d" % (cmd[1], proc.returncode))
                for line in lines[:-1]:
                    print(line)
                results.append(json.loads(lines[-1]))
        return results


def build(root, build_dir):
    src = root / "perfbench"
    out = build_dir / "perfbench"
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(src), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / "perfbench"


def simulate(run, binary, work, seed, w):
    """Each day's capture + reference, cached per (length, day seed)."""
    dirs, todo = [], []
    for d in range(w["days"]):
        out = work / ("sim-%ds-seed%d" % (w["capture_s"], 16 * seed + d))
        dirs.append(out)
        if not (out / "ready.json").exists():
            todo.append([binary, "sim", "--seed", 16 * seed + d,
                         "--capture-s", w["capture_s"], "--out", out])
    for cmd, info in zip(todo, run.parallel(todo, MAX_SIM_PROCS)):
        (Path(cmd[-1]) / "ready.json").write_text(json.dumps(info))
    for out in dirs:
        info = json.loads((out / "ready.json").read_text())
        print("  %s: %d capture records, %d reference jframes, "
              "fingerprint %s" % (out.name, info["records"], info["jframes"],
                                  info["fingerprint"]))
    return dirs


def median(values):
    values = sorted(values)
    n = len(values)
    return (values[n // 2] if n % 2 else
            (values[n // 2 - 1] + values[n // 2]) / 2)


def run_workload(run, binary, work, args):
    w = WORKLOADS[args.workload]
    print("%s, seed %d:" % (args.workload, args.seed))
    days = simulate(run, binary, work, args.seed, w)
    base = work / args.workload
    refs = ",".join(str(d / "ref.bin") for d in days)
    timed = ["--seconds", args.seconds]
    if args.trace:
        timed += ["--trace-out",
                  work / ("trace-%s-seed%d.json" % (args.workload, args.seed))]

    if args.workload == "batch":
        caps = ",".join(str(base / ("day%d" % i) / "cap")
                        for i in range(len(days)))
        setup = run([binary, "batch-setup",
                     "--srcs", ",".join(str(d / "cap") for d in days),
                     "--outs", caps])
        setup_s = median(float(x) for x in setup["setup_samples"].split(","))
        return run([binary, "batch", "--caps", caps, "--refs", refs,
                    "--state", base / "state", "--setup-s", repr(setup_s)]
                   + timed)
    if args.workload == "live":
        return run([binary, "live",
                    "--srcs", ",".join(str(d / "cap") for d in days),
                    "--refs", refs, "--work", base,
                    "--speedup", w["speedup"], "--period-ms", w["period_ms"]]
                   + timed)
    samples, points = [], []
    for i, day in enumerate(days):
        point = base / ("day%d" % i)
        setup = run([binary, "restart-setup", "--src", day / "cap",
                     "--capture-s", w["capture_s"],
                     "--fraction", w["fraction"], "--work", point,
                     "--ref-cache", day / ("ref-%g.bin" % w["fraction"])])
        samples.append(setup["setup_s"])
        points.append(str(point))
    return run([binary, "restart", "--points", ",".join(points),
                "--setup-s", repr(median(samples))] + timed)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    try:
        binary = build(root, build_dir)
        run = Runner(time.monotonic() + RUN_BUDGET_S)
        work = build_dir / "work"
        work.mkdir(parents=True, exist_ok=True)
        result = run_workload(run, binary, work, args)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    metrics = {}
    for m in wanted:
        if m["name"] not in result.get("metrics", {}):
            print("perfbench: no value for %s" % m["name"], file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": result["metrics"][m["name"]],
                              "unit": m["unit"]}
    for name, v in metrics.items():
        print("  %-28s %18.6f %s" % (name, v["value"], v["unit"]))
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    print(json.dumps({"correct": attempted >= 1 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
