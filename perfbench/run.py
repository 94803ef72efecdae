#!/usr/bin/env python3
"""Build parcfl's daemon and the benchmark program from source, then run one workload.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Everything the build and the run write stays
under .bench_build/ in the checkout: the Go build cache, temporary files, the
binaries, and per-run records, traces and layer tables (.bench_build/runs/).
The last line of standard output is the benchmark's JSON result.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOMODCACHE": "gopath/pkg/mod",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
        "XDG_CACHE_HOME": "cache",
    }
    for key, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    # Build only from the checkout: no toolchain or module downloads.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=readonly", GOWORK="off")
    return env


def revision():
    """The git revision when the checkout is a repository, else a digest of
    the Go sources and module files."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def build(env):
    bindir = os.path.join(BUILD, "bin")
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(bindir, "parcfld"), "./cmd/parcfld"]),
        (HERE, ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        res = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return bindir


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod at %s; run from the root of a parcfl checkout" % ROOT)
    env = go_env()
    bindir = build(env)
    cmd = [
        os.path.join(bindir, "perfbench"),
        "-workload", args.workload, "-seed", str(args.seed), "-seconds", str(args.seconds),
        "-trace", str(args.trace), "-parcfld", os.path.join(bindir, "parcfld"),
        "-out", os.path.join(BUILD, "runs"), "-revision", revision(),
    ]
    sys.stdout.flush()
    os.chdir(ROOT)
    # Replace this process, so whoever started it holds the benchmark itself.
    os.execve(cmd[0], cmd, env)


if __name__ == "__main__":
    main()
