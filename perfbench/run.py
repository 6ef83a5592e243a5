#!/usr/bin/env python3
"""Builds and runs the dpma benchmark.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload functional|markov|general|battery \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (a CMake project that
compiles the library sources under src/) in Release mode into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, below the
repository root; later calls only rebuild what changed.  Build output goes
to build.log in that directory and to stderr on failure, so the last line of
standard output is always the benchmark's JSON result.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def run_group(command, timeout, **kwargs):
    """Runs command in its own process group; on timeout kills the whole group
    (compilers spawned by the build included) and waits for it."""
    with subprocess.Popen(command, cwd=ROOT, start_new_session=True, **kwargs) as process:
        try:
            return process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            fail(f"timed out after {timeout} s: {' '.join(command)}", code=4)
        except BaseException:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise


def run_logged(command, log, timeout):
    with open(log, "a", encoding="utf-8") as out:
        out.write("$ " + " ".join(command) + "\n")
        out.flush()
        return run_group(command, timeout, stdout=out, stderr=subprocess.STDOUT)


def build(targets):
    build_path = build_dir()
    build_path.mkdir(parents=True, exist_ok=True)
    log = build_path / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_path / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_path),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run_logged(configure, log, BUILD_TIMEOUT_S) != 0:
            sys.stderr.write(log.read_text(encoding="utf-8", errors="replace"))
            fail("configure failed")
    command = ["cmake", "--build", str(build_path), "-j", jobs, "--target", *targets]
    if run_logged(command, log, BUILD_TIMEOUT_S) != 0:
        sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-20000:])
        fail("build failed")
    return build_path


def git_sha():
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return result.stdout.strip() if result.returncode == 0 else "none"


def source_hash():
    """SHA-256 over the library sources and shipped specs the benchmark reads."""
    digest = hashlib.sha256()
    for top in ("src", "specs"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["functional", "markov", "general", "battery"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    for needed in ("src", "specs"):
        if not (ROOT / needed).is_dir():
            fail(f"{ROOT / needed} not found: run from a checkout of the repository")

    if args.self_test:
        build_path = build(["perfbench_selftest"])
        sys.exit(run_group([str(build_path / "perfbench_selftest"), str(ROOT)], RUN_TIMEOUT_S))

    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    build_path = build(["perfbench"])
    command = [str(build_path / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", str(ROOT),
               "--git-sha", git_sha(), "--src-hash", source_hash()]
    sys.stdout.flush()
    sys.exit(run_group(command, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
