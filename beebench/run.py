#!/usr/bin/env python3
"""Builds and runs the Beehive end-to-end benchmark.

    python3 beebench/run.py --workload <lsw_local|seattle_remote|te_fig4> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library from ../src and the benchmark binaries in .bench_build/beebench
(Release); later calls rebuild only what changed. --trace 0 runs the
untraced binary and prints the end-to-end metrics; --trace 1 runs the
binary with the counting allocator and prints the per-layer metrics. The
last line of standard output is the result JSON, checked against the metric
names and units in BENCHMARK.json. The exit code is non-zero when the build
fails, an answer was wrong, or the result does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "beebench"
WORKLOADS = ("lsw_local", "seattle_remote", "te_fig4")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"beebench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when run in a repository, else a digest of the sources."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty",
             "--abbrev=12"],
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "beebench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-" + digest.hexdigest()[:12]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no beehive sources under {ROOT / 'src'}; run from a checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "beebench", "beebench_traced"])
    for step in steps:
        try:
            proc = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build step {step[:2]} failed: {e}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            die(f"build step {' '.join(step[:2])} exited {proc.returncode}")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error string, or None when the result line is well formed."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return (f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"extra {extra}, unit mismatch {wrong}")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    binary = BUILD / ("beebench_traced" if args.trace else "beebench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--commit", source_id()]
    if args.trace:
        cmd += ["--spans",
                str(BUILD / f"spans-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.rstrip("\n").split("\n")
    error = check_result(lines[-1], args.trace) if lines else "no output"
    if error is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die(error, 3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
