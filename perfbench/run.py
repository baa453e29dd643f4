#!/usr/bin/env python3
"""Build tlpsim and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload figures|sampled|served \
        --seed N --seconds S --trace 0|1 [--sim-seed 42|2014]
    python3 perfbench/run.py --write-refs --sim-seed N

Run from the root of a tlpsim checkout. Build output goes to
$CARGO_TARGET_DIR (default .bench_build). Every inherited TLPSIM_*
variable is cleared first. The last line of standard output is the
benchmark's JSON result; see perfbench/README.md.
"""

import hashlib
import os
import signal
import subprocess
import sys

# Longest a run may take once built; the benchmark itself stops well
# before this, so hitting it means something hung.
RUN_TIMEOUT_S = 170

SOURCE_DIRS = ("crates", "src", "perfbench/src")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", "perfbench/Cargo.lock")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the sources the benchmark builds (a checkout need
    not be a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    paths = [p for p in SOURCE_FILES if os.path.isfile(p)]
    for d in SOURCE_DIRS:
        for root, dirs, files in os.walk(d):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(root, f) for f in files if f.endswith((".rs", ".toml"))]
    for p in sorted(paths):
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def probe(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates") and os.path.isdir("src")):
        fail("run from the root of a tlpsim checkout (Cargo.toml, crates/ and src/ not found)", 2)

    env = {k: v for k, v in os.environ.items() if not k.startswith("TLPSIM_")}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target

    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "tlpsim", "--bin", "tlpsim"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    )
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")

    print(
        f"perfbench: nproc={os.cpu_count()} commit={probe(['git', 'rev-parse', 'HEAD'])} "
        f"source={source_digest()} rustc=\"{probe(['rustc', '--version'])}\"",
        flush=True,
    )

    cmd = [
        os.path.join(target, "release", "tlpsim-perfbench"),
        *sys.argv[1:],
        "--tlpsim", os.path.join(target, "release", "tlpsim"),
        "--refs", "perfbench/refs",
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    # Its own process group, so a hang can be stopped with every daemon
    # and worker process the benchmark started.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
