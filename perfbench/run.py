#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload clover2d-dram --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The script builds the benchmark binary
(``perfbench/Cargo.toml``, into ``$CARGO_TARGET_DIR`` or ``.bench_build``),
measures the host's STREAM roof in one child process, runs the workload in
another, and prints a human-readable report followed, as the last line, by
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``;
``--trace 1`` the ``per_layer`` ones (0 for a layer the workload does not
exercise). The exit code is 0 only if every output check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Seconds the roof process may take, and the workload process beyond
# --seconds (set-up, references, checks), before each is killed as hung.
ROOF_LIMIT = 60
GRACE_SECONDS = 90
# Directories whose contents the source fingerprint covers.
SOURCE_DIRS = ("crates", "compat", "perfbench")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd, env, limit):
    """Run ``cmd``; return (exit code, stdout, peak RSS in KiB)."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    timer = threading.Timer(limit, p.kill)
    timer.start()
    try:
        out = p.stdout.read().decode()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out, usage.ru_maxrss


def last_json(out, what):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail(f"{what} printed nothing")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(f"{what} printed no JSON: {lines[-1][:200]}")


def git_sha():
    """HEAD of the checkout's git repository, if it is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "none"


def source_fingerprint(skip):
    """sha256 over the benchmarked sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if os.path.join(dirpath, d) != skip)
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "bwb-perfbench")

    # The roof runs in its own process so that its arrays do not count
    # towards the workload's peak RSS. Two threads for the 2t figures.
    code, out, _ = run_child([binary, "roof"], dict(env, RAYON_NUM_THREADS="2"), ROOF_LIMIT)
    if code != 0:
        fail(f"roof measurement exited {code}")
    roof = last_json(out, "roof measurement")

    cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--roof-1t", str(roof["triad_gbs_1t"]), "--roof-2t", str(roof["triad_gbs_2t"])]
    code, out, rss_kib = run_child(cmd, env, args.seconds + GRACE_SECONDS)
    if code != 0:
        fail(f"workload exited {code}")
    rep = last_json(out, "workload")

    measured = dict(rep["metrics"])
    measured["peak_rss_mb"] = {"value": rss_kib * 1024 / 1e6, "unit": "MB", "samples": 1}
    measured["stream.triad_gbs.1t"] = {"value": roof["triad_gbs_1t"], "unit": "GB/s", "samples": 1}
    measured["stream.triad_gbs.2t"] = {"value": roof["triad_gbs_2t"], "unit": "GB/s", "samples": 1}
    measured["stream.copy_gbs.1t"] = {"value": roof["copy_gbs_1t"], "unit": "GB/s", "samples": 1}
    attempted, failed = rep["attempted"], rep["failed"]
    measured["fail_ratio"] = {"value": failed / max(attempted, 1), "unit": "ratio",
                              "samples": attempted}

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"workload did not report {m['name']}")
            got = {"value": 0.0, "unit": m["unit"], "samples": 0}
        if got["value"] is None or got["unit"] != m["unit"]:
            fail(f"bad value or unit for {m['name']}: {got}")
        if not args.trace and got["value"] <= 0:
            fail(f"{m['name']} is {got['value']}; end-to-end metrics are never 0")
        metrics[m["name"]] = got

    mib = 1 << 20
    print(f"# bwb-perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# host: nproc={os.cpu_count()} "
          f"llc={roof['llc_bytes'] / mib:.1f} MiB ({'cpuid' if roof['llc_measured'] else 'assumed'}) "
          f"stream array={roof['array_bytes'] / mib:.1f} MiB each "
          f"triad 1t={roof['triad_gbs_1t']:.2f} GB/s 2t={roof['triad_gbs_2t']:.2f} GB/s "
          f"copy 1t={roof['copy_gbs_1t']:.2f} GB/s")
    print(f"# source: git={git_sha()} tree-sha256={source_fingerprint(target)}")
    print("# " + " ".join(f"{k}={v}" for k, v in sorted(rep["info"].items())))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
    print(f"# checks: attempted={attempted} failed={failed} "
          f"fail_ratio={failed / max(attempted, 1):.6g}")
    for msg in rep["failures"]:
        print(f"# FAILED: {msg}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
