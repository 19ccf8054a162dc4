#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see e2ebench/README.md).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. The benchmark is built from source on first
use into $CARGO_TARGET_DIR (default .bench_build) with CMake; later runs
only re-check the build. Its last line of standard output is the
result JSON. Exits non-zero without a result when the checkout holds no
sources to build.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("atlas-cold", "serve-mixed", "fabric-many", "search-graph")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def stamp():
    """git describe of the checkout, else a hash of the sources it builds."""
    def git(*args):
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else ""

    try:  # only when the checkout itself is the repository, not a directory inside one
        if os.path.realpath(git("rev-parse", "--show-toplevel") or "/nonexistent") == \
                os.path.realpath(ROOT):
            described = git("describe", "--always", "--dirty", "--tags")
            if described:
                return "git " + described
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "scenarios", "bench", "examples", "manifests", "e2ebench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "tree " + digest.hexdigest()[:12]


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "campaign.hpp")):
        sys.exit("e2ebench: no dynamo sources next to e2ebench/; nothing to build")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "e2ebench-build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure + generator, stdout=log, stderr=log).returncode != 0:
                log.flush()
                sys.stderr.write(open(log_path).read()[-4000:])
                sys.exit("e2ebench: configure failed (log: %s)" % log_path)
        jobs = str(os.cpu_count() or 1)
        if subprocess.run(["cmake", "--build", out_dir, "--target", "e2ebench", "-j", jobs],
                          stdout=log, stderr=log).returncode != 0:
            log.flush()
            sys.stderr.write(open(log_path).read()[-4000:])
            sys.exit("e2ebench: build failed (log: %s)" % log_path)
    return os.path.join(out_dir, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (the smoke test)")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--root", ROOT, "--scratch", os.path.join(out_dir, "scratch", str(os.getpid())),
           "--stamp", stamp(), "--results", os.path.join(out_dir, "e2ebench-results.jsonl")]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(out_dir, "trace-%s-%d.jsonl" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("e2ebench: %s timed out after %d s\n" % (args.workload, RUN_TIMEOUT_S))
        return 1


if __name__ == "__main__":
    sys.exit(main())
