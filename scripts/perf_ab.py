#!/usr/bin/env python3
"""A/B this checkout against a base revision on the perfbench workloads.

    python3 scripts/perf_ab.py --base REV [--workload W]... [--pairs N] [--seconds S]

Run from the root of a tlpsim checkout. Its working tree is the change
("head"): the files git does not ignore, copied when the script starts.
REV is checked out in a git worktree ("base"). Both trees live in a
temporary directory under .bench_build, removed on exit. Each pair runs

    python3 perfbench/run.py --workload W --seconds S --trace 0 --seed K

once on each side with the same K, and alternates which side goes
first. Before each run the side's tree is renamed to one shared path,
so both sides build (into their own .bench_build; CARGO_TARGET_DIR is
unset) and run at the same path: binaries embed their source path, and
cargo hashes it into symbol names, so one source built at two paths
lays its code out differently, an offset that alternating cannot
cancel. Every run must be correct with no failed operation. For each
end-to-end metric in BENCHMARK.json the change fails if its median is
worse than the base's by more than the metric's bound. When the base's
own IQR exceeds the bound, its runs cannot tell such a change from
noise: the metric is unresolved, not failed, unless every head run is
worse (then it fails) or better (then it passes) than every base run.
A slow spell of the host can still cost one side every pair of a
batch, so a workload with a failed metric runs a second batch of
pairs on fresh seeds, and a metric fails only if it fails in both.

Exit status: 0 if nothing failed, 1 if a run failed or a metric
regressed, 2 on a usage or setup error.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile


def fail(msg, code=2):
    print(f"perf_ab: {msg}", file=sys.stderr)
    sys.exit(code)


def copy_working_tree(dest):
    """Copy every file git tracks or would track into `dest`."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           capture_output=True, check=True).stdout.decode().split("\0")
    for name in names:
        # A tracked file deleted from the working tree is listed too.
        if name and os.path.isfile(name):
            os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(name, os.path.join(dest, name))


def run_bench(tmp, side, args, workload, seed):
    """One perfbench run of `side` at the shared path; returns its metrics."""
    run_dir = os.path.join(tmp, "run")
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seconds", str(args.seconds),
           "--trace", "0", "--seed", str(seed)]
    os.rename(os.path.join(tmp, side), run_dir)
    try:
        out = subprocess.run(cmd, cwd=run_dir, env=env, capture_output=True, text=True)
    finally:
        os.rename(run_dir, os.path.join(tmp, side))
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if out.returncode != 0 or not result or result["correct"] is not True or result["failed"] != 0:
        sys.stderr.write(out.stderr[-2000:])
        print(f"perf_ab: {workload} run of {side} failed (exit {out.returncode}): "
              f"{lines[-1] if lines else 'no output'}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_pairs(tmp, args, workload, first_seed):
    """`args.pairs` alternating pairs; returns (base runs, head runs), or None."""
    runs = {"base": [], "head": []}
    for i in range(args.pairs):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for side in order:
            r = run_bench(tmp, side, args, workload, seed=first_seed + i)
            if r is None:
                return None
            runs[side].append(r)
        print(f"perf_ab: {workload} pair {i + 1}/{args.pairs} done", flush=True)
    return runs["base"], runs["head"]


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(workload, metrics, base_runs, head_runs, args):
    """Print one row per end-to-end metric; returns the failed names."""
    print(f"\n{workload}: {len(base_runs)} pairs, {args.seconds} s runs")
    print(f"{'metric':15} {'base median [q1, q3]':>30} {'head median [q1, q3]':>30} "
          f"{'change':>8} {'bound':>6} {'head wins':>9}  verdict")
    failed = []
    for m in metrics:
        name, bound = m["name"], m["bound"]
        sign = 1 if m["better"] == "lower" else -1
        base = [r[name] for r in base_runs]
        head = [r[name] for r in head_runs]
        b1, b, b3 = quartiles(base)
        h1, h, h3 = quartiles(head)
        # Relative change, positive when the change is worse.
        rel = sign * (h - b) / abs(b) if b else (0.0 if h == b else math.inf)
        spread = (b3 - b1) / abs(b) if b else 0.0
        wins = sum(sign * (y - x) < 0 for x, y in zip(base, head))
        # A spread wider than the bound hides a change of the bound's
        # size, unless every head run is on one side of every base run.
        always_better = all(sign * (y - x) < 0 for x in base for y in head)
        always_worse = all(sign * (y - x) > 0 for x in base for y in head)
        if rel > bound and (spread <= bound or always_worse):
            verdict = "FAIL"
            failed.append(name)
        elif spread > bound and not always_better:
            verdict = f"unresolved (base IQR {spread:.0%} > bound)"
        else:
            verdict = "ok"
        base_s, head_s = f"{b:.4g} [{b1:.4g}, {b3:.4g}]", f"{h:.4g} [{h1:.4g}, {h3:.4g}]"
        print(f"{name:15} {base_s:>30} {head_s:>30} {rel:>+8.1%} {bound:>6.0%} "
              f"{wins:>4}/{len(base):<4}  {verdict}")
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", action="append", choices=["figures", "sampled", "served"],
                    help="workload to run (repeatable; default all three)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=40)
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        fail("--pairs and --seconds must be positive")
    if not os.path.isfile("BENCHMARK.json") or not os.path.isfile("perfbench/run.py"):
        fail("run from the root of a tlpsim checkout (BENCHMARK.json, perfbench/run.py)")
    with open("BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    rev = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}"],
                         capture_output=True, text=True).stdout.strip()
    if not rev:
        fail(f"unknown revision {args.base!r}")

    # SIGTERM unwinds like Ctrl-C, so the trees are always removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(".bench_build", exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="perf_ab-", dir=os.path.abspath(".bench_build"))
    try:
        copy_working_tree(os.path.join(tmp, "head"))
        if subprocess.run(["git", "worktree", "add", "--detach", "--quiet",
                           os.path.join(tmp, "base"), rev]).returncode:
            fail(f"cannot check {rev} out in {tmp}")
        print(f"perf_ab: base {rev[:12]} against the working tree, both run at "
              f"{os.path.join(tmp, 'run')}", flush=True)
        failed = []
        for workload in args.workload or ["figures", "sampled", "served"]:
            runs = run_pairs(tmp, args, workload, first_seed=1)
            if runs is None:
                return 1
            worse = compare(workload, metrics, *runs, args)
            if worse:
                print(f"\nperf_ab: {workload} {', '.join(worse)} failed; running a second batch",
                      flush=True)
                runs = run_pairs(tmp, args, workload, first_seed=args.pairs + 1)
                if runs is None:
                    return 1
                again = compare(workload, metrics, *runs, args)
                worse = [n for n in worse if n in again]
            failed += [f"{workload}.{n}" for n in worse]
        if failed:
            print(f"\nperf_ab: worse than base by more than the bound in both batches: "
                  f"{', '.join(failed)}")
            return 1
        print("\nperf_ab: no metric worse than its bound")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], capture_output=True)


if __name__ == "__main__":
    sys.exit(main())
