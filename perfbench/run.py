#!/usr/bin/env python3
"""Builds and runs the GC-safety pipeline benchmark.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload <matrix|fuzz|churn|graph> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR,
or `.bench_build` at the repository root when that is unset, then runs it
with the same arguments. Build output goes to standard error; the last
line of standard output is the benchmark's JSON result. Exits non-zero,
printing no result, when the build or the run fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def run(cmd, timeout, env, stdout):
    """Runs `cmd` in its own process group at the repository root, and
    kills the whole group if it outlives `timeout`."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def main():
    for needed in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: no {needed} at {ROOT}; run from a checkout of the repository")
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    code, _ = run(build, BUILD_TIMEOUT_S, env, sys.stderr)
    if code != 0:
        sys.exit(f"perfbench: build failed with exit code {code}")
    binary = os.path.join(target, "release", "perfbench")
    code, out = run([binary] + sys.argv[1:], RUN_TIMEOUT_S, env, subprocess.PIPE)
    if code != 0:
        sys.exit(f"perfbench: benchmark failed with exit code {code}")
    sys.stdout.write(out.decode())


if __name__ == "__main__":
    main()
