#!/usr/bin/env python3
"""Checks and statistics around the benchmark binary (standard library only).

    report.py smoke  BIN BENCHMARK.json BENCH_DIR   what `run.sh --smoke` runs
    report.py repeat N RUN_SH BENCHMARK.json [SEED] what `repeat.sh N` runs
"""
import json
import statistics
import subprocess
import sys
import time


def load_declared(benchmark_json):
    with open(benchmark_json) as f:
        doc = json.load(f)
    return doc, {
        "workload": {w["name"] for w in doc["workloads"]},
        "end_to_end": {(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]},
        "per_layer": {(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]},
    }


def result_of(stdout):
    """The result object on the last line of a run's standard output, or None."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None
    return json.loads(lines[-1])


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def smoke(binary, benchmark_json, bench_dir):
    started = time.monotonic()
    doc, declared = load_declared(benchmark_json)

    # 1. the binary's tables and BENCHMARK.json declare the same names,
    #    units and directions
    listed = {"workload": set(), "end_to_end": set(), "per_layer": set()}
    for line in subprocess.run([binary, "--list"], capture_output=True, text=True, check=True).stdout.splitlines():
        kind, *rest = line.split()
        listed[kind].add(rest[0] if kind == "workload" else tuple(rest))
    for kind in listed:
        if listed[kind] != declared[kind]:
            fail(f"{kind} differs between the binary and BENCHMARK.json: {sorted(listed[kind] ^ declared[kind], key=str)}")
    print(f"ok: {len(declared['workload'])} workloads, {len(declared['end_to_end'])} end-to-end and "
          f"{len(declared['per_layer'])} per-layer metrics match BENCHMARK.json")

    # 2. every workload runs at smoke size, untraced and traced, passes
    #    its gates, and prints exactly the declared names with units
    for workload in sorted(declared["workload"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            run = subprocess.run(
                [binary, "--workload", workload, "--smoke", "--seconds", "1", "--seed", "7",
                 "--trace", str(trace), "--out-dir", f"{bench_dir}/out/smoke"],
                capture_output=True, text=True)
            result = result_of(run.stdout)
            if run.returncode != 0 or result is None:
                fail(f"{workload} --trace {trace} exited {run.returncode}: {run.stderr.strip()}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} --trace {trace}: result keys {sorted(result)}")
            printed = {(name, m["unit"]) for name, m in result["metrics"].items()}
            wanted = {(name, unit) for name, unit, _ in declared[kind]}
            if printed != wanted:
                fail(f"{workload} --trace {trace}: printed metrics differ from BENCHMARK.json: {sorted(printed ^ wanted)}")
            if not (result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0):
                fail(f"{workload} --trace {trace}: {result['failed']} of {result['attempted']} ops failed")
            if trace == 0 and any(m["value"] <= 0 for m in result["metrics"].values()):
                fail(f"{workload}: an end-to-end metric is not positive: {result['metrics']}")
            print(f"ok: {workload} --trace {trace} ({result['attempted']} ops, {len(printed)} metrics)")

    # 3. the gates are live: an injected defect exits non-zero and
    #    prints no result
    for workload, fault in (("gossip_delta", "expected-edges"),
                            ("swarm_rank", "protocol-errors"),
                            ("shard_1m", "shard-checksum")):
        run = subprocess.run(
            [binary, "--workload", workload, "--smoke", "--seconds", "1", "--seed", "7", "--fault", fault],
            capture_output=True, text=True)
        if run.returncode == 0 or result_of(run.stdout) is not None:
            fail(f"{workload} with fault {fault} exited {run.returncode} and printed: {run.stdout[-200:]}")
        print(f"ok: {workload} with fault {fault} exits {run.returncode} without a result ({run.stderr.strip().splitlines()[-1]})")

    # 4. unit tests of the benchmark crate (median, tail percentile,
    #    span self time, input generation)
    tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--manifest-path", f"{bench_dir}/Cargo.toml", "-q"],
        capture_output=True, text=True)
    if tests.returncode != 0:
        fail(f"unit tests failed:\n{tests.stdout}\n{tests.stderr}")
    print("ok: unit tests pass")
    print(f"smoke passed in {time.monotonic() - started:.1f} s")


def spread(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def repeat(sets, run_sh, benchmark_json, seed_base):
    doc, _ = load_declared(benchmark_json)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    exceeded = []
    for w in doc["workloads"]:
        workload = w["name"]
        samples = {name: [] for name in bounds}
        for i in range(sets):
            run = subprocess.run(
                ["bash", run_sh, "--workload", workload, "--seed", str(seed_base + i),
                 "--seconds", str(doc["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            result = result_of(run.stdout)
            if run.returncode != 0 or result is None:
                fail(f"{workload} seed {seed_base + i} exited {run.returncode}: {run.stderr.strip()[-400:]}")
            for name, m in result["metrics"].items():
                samples[name].append(m["value"])
        print(f"{workload}: {sets} runs, seeds {seed_base}..{seed_base + sets - 1}")
        print(f"  {'metric':<14}{'min':>14}{'median':>14}{'max':>14}{'spread':>9}{'bound':>7}")
        for name, values in samples.items():
            s = spread(values) if len(values) >= 2 else 0.0
            # set-up time is bounded on its median, not on its spread
            over = s > bounds[name] and name != "setup_s"
            if over:
                exceeded.append((workload, name, s))
            print(f"  {name:<14}{min(values):>14.6g}{statistics.median(values):>14.6g}{max(values):>14.6g}"
                  f"{s:>9.3f}{bounds[name]:>7.2f}{'  OVER' if over else ''}")
    if exceeded:
        fail("; ".join(f"{w} {n} spread {s:.3f}" for w, n, s in exceeded))


if __name__ == "__main__":
    if len(sys.argv) >= 5 and sys.argv[1] == "smoke":
        smoke(*sys.argv[2:5])
    elif len(sys.argv) >= 5 and sys.argv[1] == "repeat":
        repeat(int(sys.argv[2]), sys.argv[3], sys.argv[4], int(sys.argv[5]) if len(sys.argv) > 5 else 1)
    else:
        sys.exit(__doc__)
