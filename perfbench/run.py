#!/usr/bin/env python3
"""Build and run the MLOC benchmark of record (see README.md).

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds the Go benchmark in this
directory with every Go cache kept under the build directory
($CARGO_TARGET_DIR, default .bench_build), runs it with the given
arguments, and passes its output through: the last line of standard
output is the JSON result. It exits non-zero, printing no result, when
the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run takes well under a minute; this bounds a stalled one.
RUN_TIMEOUT_S = 175


def main():
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(out, "home")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
    })
    binary = os.path.join(out, "perfbench", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    spans = os.path.join(out, "spans")
    proc = subprocess.Popen([binary, "--spans-dir", spans] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
