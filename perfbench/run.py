#!/usr/bin/env python3
"""Real-time benchmark of the LDLP stacks: one workload at one seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Works in the source checkout that holds it.  Builds perfbench/main.exe
from source with dune (into .bench_build, shared cache off, so nothing is
written outside the checkout), runs it, checks the record it prints
(perfbench/checks.py), prints a human-readable report (host fingerprint,
every metric with unit and sample count, the checks), and ends with one
JSON line {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics of BENCHMARK.json; --trace 1 runs the workload with
the benchmark's span wrappers on, reports the per-layer metrics and writes
a Chrome Trace Event file (open it in Perfetto) under .bench_out.

Exit status: 0 when every check passed, 1 when a check failed (the result
line is still printed), 2 when the benchmark could not run (no result).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import checks  # noqa: E402


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune not found on PATH")


def build():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("not a source checkout (no %s in %s)" % (needed, ROOT))
    cmd = dune_command() + [
        "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
        "--cache", "disabled", "--display", "quiet", "./perfbench/main.exe",
    ]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       universal_newlines=True)
    if p.returncode != 0 or not os.path.exists(os.path.join(ROOT, EXE)):
        sys.stderr.write(p.stdout)
        die("build failed")


def git_commit():
    """The checked-out commit, read from .git in this directory only."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        try:
            with open(os.path.join(ROOT, ".git", name)) as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
                for line in f:
                    if line.strip().endswith(" " + name):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest():
    """SHA-256 over the library and benchmark sources, so a record names the
    code it measured even where there is no git metadata."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune", ".py")):
                    path = os.path.join(d, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fmt(v):
    return "%.6g" % v if isinstance(v, (int, float)) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    s = spec()
    names = [w["name"] for w in s.get("workloads", [])]
    if args.workload not in names:
        die("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
    if args.seconds <= 0:
        die("--seconds must be positive")
    group = s["end_to_end"] if args.trace == 0 else s["per_layer"]
    expected = {m["name"]: m["unit"] for m in group}

    build()
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    cmd = [os.path.join(ROOT, EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", OUT_DIR]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           universal_newlines=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(p.stderr)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout)
        die("benchmark exited with status %d" % p.returncode)
    try:
        record = json.loads(lines[-1])
    except ValueError:
        die("benchmark printed no result record")

    host = dict(record.get("host", {}))
    host.update({
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    })
    record["host"] = host
    violations, failed = checks.verify(record, expected, positive=(args.trace == 0))

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(ROOT, OUT_DIR, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("perfbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("host: " + ", ".join("%s=%s" % kv for kv in sorted(host.items())))
    print("%-36s %14s %-6s %10s" % ("metric", "value", "unit", "samples"))
    for name, m in record["metrics"].items():
        mark = "" if name in expected else "   (reported, not in BENCHMARK.json)"
        print("%-36s %14s %-6s %10s%s" % (name, fmt(m.get("value")), m.get("unit"),
                                          m.get("n"), mark))
    print("checks: " + ("all passed" if not violations else "FAILED"))
    for v in violations:
        print("  violation: " + v)
    if args.trace == 1:
        print("spans: " + os.path.join(OUT_DIR, record["workload"] + "-seed%d.trace.json" % args.seed))

    attempted = record.get("attempted") if isinstance(record.get("attempted"), int) else 0
    result = {
        "correct": not violations,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            name: {"value": record["metrics"][name]["value"], "unit": unit}
            for name, unit in expected.items()
            if isinstance(record["metrics"].get(name), dict)
        },
    }
    print(json.dumps(result))
    sys.exit(0 if not violations else 1)


if __name__ == "__main__":
    main()
