#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a source tree:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --record-hashes FIRST LAST

A run builds the swlb library and the benchmark program from source into
.bench_build/ (incremental after the first run), measures the host
(fingerprint and an in-run triad bandwidth roof in a child process, so the
workload's peak RSS excludes it), runs the workload, and prints the host
fingerprint on one line and the result as the last line of stdout:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything the run writes stays under .bench_build/ in the source tree.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "perfbench")
HASHES = os.path.join(BENCH_DIR, "expected_hashes.json")
RUN_DEADLINE = 170.0  # seconds a measuring run may take, build excluded


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("no swlb source tree (CMakeLists.txt, src/) in " + ROOT)
        sys.exit(2)
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                   targets, stdout=sys.stderr, check=True, timeout=840)


def program(args, timeout):
    out = subprocess.run([PROGRAM] + args, stdout=subprocess.PIPE,
                         text=True, check=True, timeout=timeout)
    return out.stdout.strip().splitlines()[-1]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def tree_digest():
    """sha256 over the sources the benchmark builds: identifies the code
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", os.path.relpath(BENCH_DIR, ROOT)):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def declared_metrics(trace):
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec):
        return None
    with open(spec) as f:
        b = json.load(f)
    return {m["name"] for m in b["per_layer" if trace else "end_to_end"]}


def expected_hash(workload, seed):
    if not os.path.isfile(HASHES):
        return None
    with open(HASHES) as f:
        table = json.load(f)
    return table.get(workload, {}).get("hashes", {}).get(str(seed))


def measure(a):
    build(["perfbench"])
    t0 = time.monotonic()
    host = json.loads(program(["host"], 30))
    threads = host["workload_threads"].get(a.workload)
    if threads is None:
        log("unknown workload " + a.workload)
        sys.exit(2)
    # Bandwidth roof: three arrays, each at least 4x the last-level cache.
    array_bytes = max(4 * host["llc_bytes"], 64 << 20)
    triad = json.loads(program(["triad", "--threads", str(threads),
                                "--array-bytes", str(array_bytes)], 60))
    fingerprint = {
        "cores": host["cores"], "cpu_model": host["cpu_model"],
        "llc_bytes": host["llc_bytes"], "compiler": host["compiler"],
        "flags": host["flags"], "build_type": host["build_type"],
        "threads": threads, "git_sha": git_sha(),
        "tree_sha256": tree_digest(), "triad_gbs": triad["gbs"],
        "triad_array_bytes": triad["array_bytes"],
    }
    out_dir = os.path.join(BUILD, "out")
    tmp = os.path.join(BUILD, "tmp-%d" % os.getpid())
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    args = ["run", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--triad-gbs", repr(triad["gbs"]), "--tmp", tmp, "--out", out_dir]
    want = expected_hash(a.workload, a.seed)
    if want:
        args += ["--expect-hash", want]
    try:
        line = program(args, max(10.0, RUN_DEADLINE - (time.monotonic() - t0)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = json.loads(line)
    declared = declared_metrics(a.trace == 1)
    if declared is not None and set(result["metrics"]) != declared:
        log("metrics differ from BENCHMARK.json: %s" %
            sorted(set(result["metrics"]) ^ declared))
        sys.exit(1)
    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
              "trace": a.trace, "fingerprint": fingerprint, "result": result}
    name = "%s-seed%d-trace%d.json" % (a.workload, a.seed, a.trace)
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"fingerprint": fingerprint}))
    print(json.dumps(result))


def self_test():
    build(["perfbench_selftest"])
    work = os.path.join(BUILD, "selftest")
    os.makedirs(work, exist_ok=True)
    sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                            cwd=work, timeout=600).returncode)


def record_hashes(first, last):
    """Record the state hash of every seed in [first, last] for the
    workloads that check one (run on a known-good commit)."""
    build(["perfbench"])
    table = {}
    if os.path.isfile(HASHES):
        with open(HASHES) as f:
            table = json.load(f)
    for workload in ("urban_les", "tgv_f16_inplace"):
        entry = table.setdefault(workload, {"hashes": {}})
        for seed in range(first, last + 1):
            entry["hashes"][str(seed)] = program(
                ["record", "--workload", workload, "--seed", str(seed)], 120)
            log("%s seed %d: %s" % (workload, seed, entry["hashes"][str(seed)]))
        entry["hashes"] = dict(sorted(entry["hashes"].items(),
                                      key=lambda kv: int(kv[0])))
    with open(HASHES, "w") as f:
        json.dump(table, f, indent=1)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-hashes", nargs=2, type=int,
                   metavar=("FIRST", "LAST"))
    a = p.parse_args()
    try:
        if a.self_test:
            self_test()
        elif a.record_hashes:
            record_hashes(*a.record_hashes)
        elif None in (a.workload, a.seed, a.seconds, a.trace):
            p.error("--workload, --seed, --seconds and --trace are required")
        else:
            measure(a)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log("failed: %s" % e)
        sys.exit(1)


if __name__ == "__main__":
    main()
