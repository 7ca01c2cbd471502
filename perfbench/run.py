#!/usr/bin/env python3
"""Build and run the perfbench Go benchmark from the root of a checkout.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-upload --seed 1 --seconds 20 --trace 0

The Go program is built from source into the build directory
($CARGO_TARGET_DIR, default .bench_build), with the Go build cache,
module cache, temporary files and HOME all kept inside it, so a run reads
and writes nothing outside the checkout. The program's last line of
standard output is the JSON result; everything else goes to standard
error. The exit code is the program's.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    gomod = os.path.join(root, "go.mod")
    if not os.path.isfile(gomod) or not os.path.isdir(os.path.join(root, "internal")):
        fail("no dpreverser module at %s: run from the root of a full checkout" % root)
    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        go = shutil.which("go", path=os.path.join(os.environ["GOROOT"], "bin"))
    if go is None:
        fail("the go toolchain is neither on PATH nor under $GOROOT/bin")

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build)
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "home/.config"),
                     ("XDG_CACHE_HOME", "home/.cache")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update({"GOFLAGS": "", "GOPROXY": "off", "GOWORK": "off",
                "GOTOOLCHAIN": "local", "CGO_ENABLED": "0"})

    binary = os.path.join(build, "perfbench", "perfbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=bench_dir, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail("build failed")

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-out", os.path.join(build, "perfbench"),
           "-spec", os.path.join(root, "BENCHMARK.json")]
    try:
        ran = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
