#!/usr/bin/env python3
"""Build (once) and run the end-to-end benchmark from the repository root.

    python3 e2ebench/run.py --workload train-kron|dist-er|serve-zipf \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench)
and its output to stderr, so the last line on stdout is the benchmark's JSON
result. The OpenMP thread count is part of each workload's definition and is
set here, before the program starts, because rank and worker threads take the
process-wide default.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OMP_THREADS = {"train-kron": "4", "dist-er": "1", "serve-zipf": "1"}


def fail(msg):
    print(f"e2ebench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def arg_value(args, flag):
    for i, a in enumerate(args[:-1]):
        if a == flag:
            return args[i + 1]
    return None


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "graph", "kronecker.cpp")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"  # not a git checkout of this repository
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    args = sys.argv[1:]
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "e2ebench")
    build(build_dir)

    workload = arg_value(args, "--workload") or ""
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = OMP_THREADS.get(workload, "1")
    env["OMP_DYNAMIC"] = "false"
    extra = ["--git-sha", git_sha()]
    if arg_value(args, "--trace") == "1":
        extra += ["--trace-out", os.path.join(build_dir, f"trace-{workload}.json")]
    binary = os.path.join(build_dir, "e2ebench")
    sys.stdout.flush()
    os.execve(binary, [binary] + args + extra, env)


if __name__ == "__main__":
    main()
