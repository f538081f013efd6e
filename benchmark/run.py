#!/usr/bin/env python3
"""Runs the repository benchmark (see README.md in this directory).

Builds benchmark/ into build-bench/ when needed, runs each workload in its
own parsemi_bench process, prints every metric as `workload metric value
unit`, and appends each run, with a host fingerprint, to
build-bench/results/runs.jsonl. A single-workload run ends its output with
one JSON line: {"correct", "attempted", "failed", "metrics"}, where the
metrics are BENCHMARK.json's end_to_end list (--trace 0) or its per_layer
list (--trace 1).

    python3 benchmark/run.py --workload exp-10M --seed 42 --trace 0
    python3 benchmark/run.py              # every workload, untraced
    python3 benchmark/run.py --trace 1    # every workload, per-layer split
    python3 benchmark/run.py --smoke      # all workloads at n = 2*10^5
    python3 benchmark/run.py --self-test  # must detect a corrupted output

Exit status: 0 when every call verified, 1 when one failed or the driver
did, 2 when the benchmark cannot be built or run here.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
DRIVER = os.path.join(BUILD, "parsemi_bench")
DRIVER_TIMEOUT_S = 175


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def local_env(**extra):
    """The environment for child processes: temporary files stay inside
    build-bench/ (the compiler's included)."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, **extra)


def build():
    """Configures build-bench/ once, then brings parsemi_bench up to date."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the library sources (CMakeLists.txt, src/) are not here")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    log, env = sys.stderr, local_env()
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log, env=env).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configuring the benchmark failed")
    cmd = ["cmake", "--build", BUILD, "--target", "parsemi_bench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=log, stderr=log, env=env).returncode:
        fail("building parsemi_bench failed")


def read_first(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def l3_size():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            if read_first(os.path.join(base, index, "level")) == "3":
                return read_first(os.path.join(base, index, "size"))
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def filesystem_of(path):
    """The type of the mount holding `path` (longest mount-point prefix)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_fingerprint(spill_dir, build_info):
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3": l3_size(),
        "isa": build_info.get("isa", "unknown"),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "git_commit": git_commit(),
        "spill_fs": filesystem_of(spill_dir),
        "kernel": os.uname().release,
    }


def run_driver(workload, seed, seconds, trace, smoke, self_test, results):
    """One workload in its own process; returns (result dict, exit code)."""
    spill = os.path.join(BUILD, "spill")
    os.makedirs(spill, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, trace)
    out = os.path.join(results, stem + ".result.json")
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--out", out]
    if trace:
        cmd += ["--trace-out", os.path.join(results, stem + ".trace.json")]
    if smoke:
        cmd.append("--smoke")
    if self_test:
        cmd.append("--self-test")
    env = local_env(PARSEMI_SPILL_DIR=spill)
    if os.path.exists(out):
        os.remove(out)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, DRIVER_TIMEOUT_S), 1)
    wall = time.monotonic() - start
    if proc.returncode not in (0, 1):
        fail("parsemi_bench exited with %d on %s" % (proc.returncode, workload),
             proc.returncode if proc.returncode > 0 else 1)
    try:
        with open(out) as f:
            result = json.load(f)
    except (OSError, ValueError) as e:
        fail("no result from %s: %s" % (workload, e), 1)
    os.remove(out)
    result["run_wall_s"] = wall
    result["host"] = host_fingerprint(spill, result.get("build", {}))
    if not smoke:
        with open(os.path.join(results, "runs.jsonl"), "a") as f:
            f.write(json.dumps(result, sort_keys=True) + "\n")
    return result, proc.returncode


def print_result(result):
    name = result["workload"]
    for metric, m in result["metrics"].items():
        print("%s %s %r %s" % (name, metric, m["value"], m["unit"]))
    for label, value in sorted(result.get("labels", {}).items()):
        print("%s %s %s label" % (name, label, value))
    if result["failed"]:
        print("%s failed %d of %d calls: %s" % (
            name, result["failed"], result["attempted"],
            "; ".join(result.get("failures", []))))


def summary_line(result, spec, trace):
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        m = result["metrics"].get(entry["name"])
        if m is None:
            fail("the driver did not report %s" % entry["name"], 1)
        metrics[entry["name"]] = {"value": m["value"], "unit": entry["unit"]}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics}


def main():
    spec = load_spec()
    all_workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=all_workloads,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="n = 2*10^5, 5 calls, both modes, every workload")
    parser.add_argument("--self-test", action="store_true",
                        help="corrupt one output; must exit non-zero")
    parser.add_argument("--results", default=os.path.join(BUILD, "results"),
                        help="directory for runs.jsonl and the traces")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    workloads = [args.workload] if args.workload else all_workloads
    if args.smoke or args.self_test:
        modes = (0, 1) if args.smoke else (0,)
        runs = [(w, t) for w in workloads for t in modes]
    else:
        runs = [(w, args.trace) for w in workloads]

    results, worst = [], 0
    for workload, trace in runs:
        result, code = run_driver(workload, args.seed, args.seconds, trace,
                                  args.smoke or args.self_test,
                                  args.self_test, args.results)
        print_result(result)
        sys.stdout.flush()
        results.append(result)
        worst = max(worst, code, 1 if result["failed"] else 0)

    if len(runs) == 1 and not args.smoke:
        print(json.dumps(summary_line(results[0], spec, args.trace)))
    else:
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print("%d runs, %d of %d calls failed verification" % (
            len(results), failed, attempted))
    sys.exit(worst)


if __name__ == "__main__":
    main()
