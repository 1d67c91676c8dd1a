#!/usr/bin/env python3
"""Build and run the spec-to-survivors benchmark on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload gemm --seed 0 --seconds 30 --trace 0

It builds the Go driver in perfbench/ (a module of its own that uses the
repository through a replace directive) into .bench_build/, runs it on the
workload in its own process, relays its report to stderr, and prints the
run record and, as the last line of stdout, one JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Everything the run writes (Go build cache, temporary files, checkpoints,
generated C, traces) stays under .bench_build/ in the repository root.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("gemm", "stencil", "dense")
RUN_LIMIT_S = 170    # a run must end within 180 s
FIRST_LIMIT_S = 870  # the first run in a checkout builds the Go toolchain cache


def go_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("GO")}
    tmp = os.path.join(BUILD, "tmp")
    home = os.path.join(BUILD, "home")
    for d in (tmp, home):
        os.makedirs(d, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOENV="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


_child = None  # the process group run() is waiting on


def _stop(*_):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(1)


def run(cmd, env, cwd, timeout, capture):
    """Runs cmd in its own process group and waits for it; kills the group on
    timeout or when this script is interrupted. Returns (code, stdout)."""
    global _child
    _child = subprocess.Popen(cmd, cwd=cwd, env=env, text=True, start_new_session=True,
                              stdout=subprocess.PIPE if capture else sys.stderr)
    try:
        out, _ = _child.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
        fail("%s timed out after %.0f s" % (os.path.basename(cmd[0]), timeout))
    return _child.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    start = time.monotonic()
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)

    for need in ("go.mod", "internal", os.path.join("examples", "specfile", "space.bst")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from a checkout of the repository" % need, 2)
    if shutil.which("go") is None or shutil.which("cc") is None:
        fail("needs the go toolchain and a C compiler (cc) on PATH", 2)

    env = go_env()
    binary = os.path.join(BUILD, "bin", "perfbench")
    limit = RUN_LIMIT_S if os.path.isdir(env["GOCACHE"]) else FIRST_LIMIT_S
    code, _ = run(["go", "build", "-o", binary, "."], env, HERE, limit, capture=False)
    if code != 0:
        fail("go build failed", code)

    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-root", ROOT, "-dir", work,
           "-trace-out", os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        code, out = run(cmd, env, HERE, limit - (time.monotonic() - start), capture=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        fail("workload %s exited with %d" % (args.workload, code), code)

    lines = [ln for ln in out.splitlines() if ln.strip()]
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line in the driver's output")
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: " + lines[-1])
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
