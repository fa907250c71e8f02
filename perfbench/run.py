#!/usr/bin/env python3
"""Builds the benchmark program from the checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload serve|integrate|reopen --seed N \
        --seconds S --trace 0|1

Run it from anywhere inside a checkout; everything it builds or writes
goes under <checkout>/.bench_build/. The last line of standard output is
the program's JSON result; build output goes to standard error. --trace 1
also writes the spans to .bench_build/traces/<workload>-seed<N>.json.
--tiny and --tamper-digest are for perfbench/selftest.py.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def git_sha():
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()) != ROOT:
            return "unavailable"
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def source_hash():
    """SHA-256 over the library and benchmark sources and build files, so a
    result names the code it measured even outside git."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt"]
    for tree in (ROOT / "src", HERE / "src"):
        files += sorted(p for p in tree.rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build():
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    build_dir = BUILD / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append([cmake, "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", str(build_dir), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step), 3)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve", "integrate", "reopen"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--tamper-digest", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no evident sources next to {HERE.name}/ (expected "
             "CMakeLists.txt and src/ in the checkout root)")
    program = build()

    work_dir = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(program), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace, "--work-dir", str(work_dir)]
    if args.trace == "1":
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    if args.tamper_digest:
        cmd.append("--tamper-digest")

    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_SRC_HASH=source_hash())
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the program and waits for it before raising.
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"the benchmark exceeded {RUN_TIMEOUT_S} s", 4)
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
