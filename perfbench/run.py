#!/usr/bin/env python3
"""Build the nf2 benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload point-read --seed 1 --seconds 20 --trace 0

The benchmark is compiled in release mode into $CARGO_TARGET_DIR
(default: .bench_build at the repository root), then run with the given
arguments. Its standard output is passed through unchanged; the last
line is the JSON result. Scratch files (the durable-write data
directory, trace files) go under .bench_data at the repository root.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench")


def source_digest():
    """The git commit if there is one, else a digest of the sources."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return source_hash()
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_hash()


def source_hash():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f)
            for d, _, fs in os.walk(path)
            for f in fs
            if f.endswith((".rs", ".toml", ".lock", ".py"))
        ]
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "nf2-perfbench")
    args = [exe, *sys.argv[1:], "--data-dir", os.path.join(ROOT, ".bench_data"),
            "--commit", source_digest()]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
