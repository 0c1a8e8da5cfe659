#!/usr/bin/env python3
"""Build the simulator benchmark and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own) in release mode into
`$CARGO_TARGET_DIR`, or `.bench_build/` when that is unset, then runs its
binary with the same arguments. The last line printed is the result object.
The simulator's `ZTM_*` environment dials are cleared so every run measures
the default configuration. A traced run also writes its host spans to
`<target>/perfbench/spans-<workload>-seed<n>.json`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def flag(args, name):
    """The value following `name` in `args`, or None."""
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZTM_")}
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(target, "release", "perfbench")] + args
    if flag(args, "--trace") == "1":
        spans_dir = os.path.join(target, "perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        name = "spans-%s-seed%s.json" % (flag(args, "--workload"), flag(args, "--seed"))
        cmd += ["--spans-out", os.path.join(spans_dir, name)]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
