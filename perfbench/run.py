#!/usr/bin/env python3
"""Build pdrbench from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Run from the repository root. The build tree is $CARGO_TARGET_DIR, or
.bench_build when unset; build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. An untraced run measures in three
processes in turn and pools their iteration times; a traced run (--trace 1)
is one process and writes its Chrome trace to <build>/traces/. Exits
non-zero, printing no result, when the build fails, a run fails, or the
metrics differ from BENCHMARK.json's.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["design", "codesign", "fleet", "campaigns"]
PROCESSES = 3
# pdrbench's kThroughputQuantile, and the prefix of its line of samples.
THROUGHPUT_QUANTILE = 0.1
SAMPLES = "throughput samples (1/s):"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, timeout=300).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "--target", "pdrbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, timeout=850).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_pdrbench(command, timeout):
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail("pdrbench exited with %d" % run.returncode)
    return lines[:-1], json.loads(lines[-1])


def quantile(values, q):
    """Linear-interpolated quantile, as pdrbench's harness computes it."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (pos - lo) * (values[hi] - values[lo])


def throughput_samples(lines):
    for line in lines:
        if line.startswith(SAMPLES):
            return [float(v) for v in line[len(SAMPLES):].split()]
    fail("pdrbench printed no throughput samples")


def combine(results, samples):
    """One result from several processes' results on the same inputs.

    Throughput is taken, as in one pdrbench process, at the fast-end
    quantile of the iteration times, here pooled over the processes (each
    iteration does the same work, so time per unit of work is pooled). The
    set-up time is averaged; the peak memory is the largest; simulated
    figures must agree exactly.
    """
    metrics = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name == "throughput_per_s":
            value = 1.0 / quantile([1.0 / s for s in samples], THROUGHPUT_QUANTILE)
        elif name == "setup_s":
            value = statistics.fmean(values)
        elif name == "peak_rss_mb":
            value = max(values)
        elif len(set(values)) == 1:
            value = values[0]
        else:
            fail("%s differs between processes: %s" % (name, values))
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)

    command = [os.path.join(build_dir, "pdrbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.trace.json" % (args.workload, args.seed))]
        lines, result = run_pdrbench(command + ["--seconds", str(args.seconds)], 170)
        print("\n".join(lines))
    else:
        # How fast a process runs is largely fixed when it starts (where its
        # memory lands on the host), and differs by up to half between
        # processes on a shared virtual machine. One process per run made
        # bimodal run-to-run figures, so the measuring time is split over
        # PROCESSES processes whose iteration times are pooled.
        results = []
        samples = []
        for _ in range(PROCESSES):
            lines, result = run_pdrbench(
                command + ["--seconds", "%g" % (args.seconds / PROCESSES)], 170 / PROCESSES)
            print("\n".join(lines))
            results.append(result)
            samples += throughput_samples(lines)
        result = combine(results, samples)

    if set(result["metrics"]) != expected_metrics(args.trace):
        fail("metrics differ from BENCHMARK.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
