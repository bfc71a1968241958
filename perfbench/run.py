#!/usr/bin/env python3
"""Run one perfbench workload and print its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
the simulator libraries and the perfbench driver from source under
.bench_build/perfbench; later runs only re-check the build. Each run
prints a stamp line (host, build and engine facts), a summary line and,
last, the result object {"correct", "attempted", "failed", "metrics"}.
The stamp, summary and result are also appended to
.bench_build/perfbench/results.jsonl. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shlex
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("soc-mesh", "miner-dense", "serve-gated")
# A run measures for --seconds (at most 60) plus set-up; the driver's
# limit is 180 s.
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the driver; stdout goes to stderr so
    the result stays the last stdout line."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench", "perfbench_selftest"],
                   check=True, stdout=sys.stderr)


def source_digest():
    """SHA-256 over the simulator and benchmark sources: identifies the
    code when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE)):
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except OSError:
        return "none"


def cxx_version():
    cxx = os.environ.get("PARENDI_CXX") or os.environ.get("CXX") or "c++"
    try:
        r = subprocess.run(shlex.split(cxx)[:1] + ["--version"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.splitlines()[0] if r.stdout else "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # Its own process group, so a timeout also stops the $CXX children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stderr.write(err)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print(f"perfbench: driver exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1

    records = {}
    for line in lines[:-1]:
        if line.startswith('{"stamp"') or line.startswith('{"summary"'):
            records.update(json.loads(line))
        else:
            print(line)
    result = json.loads(lines[-1])
    stamp = records.get("stamp", {})
    stamp.update(git_sha=git_sha(), source_sha256=source_digest(),
                 cxx_version=cxx_version(), seconds=args.seconds,
                 trace=args.trace)
    record = {"stamp": stamp, "summary": records.get("summary", {}),
              "result": result}
    with open(os.path.join(BUILD, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"summary": record["summary"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
