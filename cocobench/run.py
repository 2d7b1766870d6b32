#!/usr/bin/env python3
"""Build and run the CoCoMac benchmark.

    python3 cocobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (cocobench/CMakeLists.txt, which compiles the simulator from the
repository's src/) into $CARGO_TARGET_DIR/cocobench, or .bench_build/cocobench
when that variable is unset; later calls only re-check the build. Build
output goes to stderr, so the benchmark's JSON result stays the last line of
stdout. Every argument is passed to the benchmark binary; see README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "cocobench")


def build():
    """Configure (once) and build the benchmark; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "compass.h")):
        sys.exit("cocobench: the simulator sources (src/) are not next to the "
                 "benchmark; run it from a full checkout of the repository")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "cocobench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "cocobench")


def main():
    try:
        exe = build()
    except subprocess.CalledProcessError as err:
        sys.exit("cocobench: build failed (%s)" % err)
    args = sys.argv[1:]
    if "--work-dir" not in args:
        args += ["--work-dir", os.path.join(build_dir(), "work")]
    return 0 if subprocess.run([exe] + args).returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
