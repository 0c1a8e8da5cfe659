#!/usr/bin/env python3
"""Paired A/B comparison of perfbench at two commits.

Usage, from anywhere inside the repository:

    python3 scripts/perf_ab.py BASE HEAD [--rounds 12] [--seconds 5]
        [--workloads elision-144,...] [--seed 1] [--workdir DIR]

Checks out BASE and HEAD (any commit-ish) as detached `git worktree`s in a
work directory, builds `perfbench` in release mode at each into its own
target directory, then runs both binaries on every workload of
`BENCHMARK.json` (or the `--workloads` subset) for N rounds.
Each round runs the pair back to back and flips which side goes first, so a
run-order effect cancels over an even number of rounds instead of posing as
a speed difference.

For each workload and end-to-end metric (the `end_to_end` list of
`BENCHMARK.json`) it prints the median and quartiles of each side, the
ratio of medians (HEAD / BASE), how many pairs HEAD won in the metric's
better direction, and the exact two-sided sign-test p-value over the
untied pairs. The `first` column counts the pairs won by whichever binary
ran first; far from half of the pairs means the host has a run-order bias.
The worktrees and their builds are removed afterwards.

Only the Python standard library is used. The `ZTM_*` environment dials
are cleared for builds and runs, as `perfbench/run.py` does.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

def git(*args, cwd=None):
    """Runs git and returns its stripped stdout; raises on failure."""
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZTM_")}
    env.update(extra)
    return env


def build(tree, target):
    """Builds perfbench from the checkout at `tree` into `target`."""
    subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(tree, "perfbench", "Cargo.toml"),
        ],
        env=clean_env(CARGO_TARGET_DIR=target),
        check=True,
        stdout=sys.stderr,
    )
    return os.path.join(target, "release", "perfbench")


def run_once(binary, workload, seed, seconds):
    """One perfbench run; returns its end-to-end metric values by name."""
    out = subprocess.run(
        [
            binary,
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        env=clean_env(),
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s failed on %s: %s" % (binary, workload, result))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    """(q1, median, q3) by the inclusive method (exact for any n >= 1)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def sign_test(wins, losses):
    """Exact two-sided binomial sign-test p-value over untied pairs."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2**n
    return min(1.0, 2 * tail)


def table(samples, metrics, better):
    """Formats the per-workload, per-metric paired table."""
    rows = [
        (
            "workload",
            "metric",
            "base median [q1, q3]",
            "head median [q1, q3]",
            "head/base",
            "head won",
            "p",
            "first",
        )
    ]
    for workload, pairs in samples.items():
        for metric in metrics:
            base = [p["base"][metric] for p in pairs]
            head = [p["head"][metric] for p in pairs]
            sign = 1 if better[metric] == "higher" else -1
            wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
            losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
            first = sum(
                1
                for p in pairs
                if sign * (p[p["first"]][metric] - p[p["second"]][metric]) > 0
            )
            bq, hq = quartiles(base), quartiles(head)
            ratio = hq[1] / bq[1] if bq[1] else float("nan")
            rows.append(
                (
                    workload,
                    metric,
                    "%.4g [%.4g, %.4g]" % (bq[1], bq[0], bq[2]),
                    "%.4g [%.4g, %.4g]" % (hq[1], hq[0], hq[2]),
                    "%.3f" % ratio,
                    "%d/%d" % (wins, len(pairs)),
                    "%.2g" % sign_test(wins, losses),
                    "%d/%d" % (first, len(pairs)),
                )
            )
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for n, r in enumerate(rows):
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if n == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="baseline commit-ish")
    ap.add_argument("head", help="candidate commit-ish")
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--seconds", type=int, default=5, help="per perfbench run")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--workdir", help="work directory (default: a new temp dir)")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    root = git("rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = [m["name"] for m in spec["end_to_end"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    commits = {
        "base": git("rev-parse", "--verify", args.base + "^{commit}", cwd=root),
        "head": git("rev-parse", "--verify", args.head + "^{commit}", cwd=root),
    }
    workdir = args.workdir or tempfile.mkdtemp(prefix="perf_ab-")
    os.makedirs(workdir, exist_ok=True)
    trees = {side: os.path.join(workdir, side) for side in commits}
    targets = {side: os.path.join(workdir, "target-" + side) for side in commits}
    added = []
    try:
        binaries = {}
        for side, commit in commits.items():
            git("worktree", "add", "--detach", trees[side], commit, cwd=root)
            added.append(trees[side])
            print("building %s at %s" % (side, commit[:12]), file=sys.stderr)
            binaries[side] = build(trees[side], targets[side])

        samples = {w: [] for w in workloads}
        for r in range(args.rounds):
            order = ("base", "head") if r % 2 == 0 else ("head", "base")
            for workload, pairs in samples.items():
                pair = {"first": order[0], "second": order[1]}
                for side in order:
                    pair[side] = run_once(
                        binaries[side], workload, args.seed, args.seconds
                    )
                pairs.append(pair)
                print(
                    "round %d/%d %s: %s"
                    % (
                        r + 1,
                        args.rounds,
                        workload,
                        ", ".join(
                            "%s %.4g" % (s, pair[s]["minstr_per_s"]) for s in order
                        ),
                    ),
                    file=sys.stderr,
                )

        print(
            "base %s, head %s: %d rounds of %d s per run, seed %d, order flipped each round"
            % (
                commits["base"][:12],
                commits["head"][:12],
                args.rounds,
                args.seconds,
                args.seed,
            )
        )
        print(table(samples, metrics, better))
    finally:
        for tree in added:
            git("worktree", "remove", "--force", tree, cwd=root)
        for target in targets.values():
            shutil.rmtree(target, ignore_errors=True)
        if not args.workdir:
            os.rmdir(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
