#!/usr/bin/env python3
"""Build and run the vchain end-to-end benchmark (documented in BENCHMARK.json).

    python3 perfbench/run.py --workload query-hot --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds perfbench/ (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and prints as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones and keeps the benchmark's spans in
<build>/traces/.

Work fingerprint: every run prints a hash of the work it did. The first run
of a (program build, workload, seed) records it under <build>/fingerprints/;
a later run of the same triple that did different work fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("query-hot", "query-cold", "append-subscribe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(build_dir)  # configured for another checkout
    if not os.path.exists(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "vchain_perf",
                    "-j", "4"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "vchain_perf")


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_fingerprint(build_root, binary, workload, seed, fingerprint):
    """False when an earlier run of this build, workload and seed did other work."""
    directory = os.path.join(build_root, "fingerprints")
    os.makedirs(directory, exist_ok=True)
    key = f"{file_sha256(binary)[:16]}-{workload}-{seed}"
    path = os.path.join(directory, key)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            recorded = f.read().strip()
        if recorded != fingerprint:
            log(f"FAILED work fingerprint {fingerprint} differs from {recorded} "
                f"recorded by an earlier run with seed {seed}")
            return False
        return True
    with open(path, "w", encoding="utf-8") as f:
        f.write(fingerprint + "\n")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"FAILED building the benchmark: {e}")
        return 1
    work_dir = os.path.join(build_root, f"work-{os.getpid()}")
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"FAILED vchain_perf did not finish within {RUN_TIMEOUT_S} s")
        return 1
    else:
        if args.trace:
            spans = os.path.join(work_dir, "spans.json")
            if os.path.exists(spans):
                traces = os.path.join(build_root, "traces")
                os.makedirs(traces, exist_ok=True)
                shutil.move(spans, os.path.join(
                    traces, f"{args.workload}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    fingerprint = next((l.split()[1] for l in lines if l.startswith("fingerprint ")), "")
    if proc.returncode != 0 or not lines or not fingerprint:
        log(f"FAILED vchain_perf exited with {proc.returncode}")
        if lines:
            print(lines[-1])
        return 1
    if not check_fingerprint(build_root, binary, args.workload, args.seed, fingerprint):
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
