#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload table1|sweep|flow|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root.  The benchmark is a dune project of its
own: it copies lib/ and perfbench/src/ into .perfbench/ws and builds
wpbench.exe there (build output goes to stderr), so the repository's own
build never compiles it.  It then runs the workload in its own process
with the Fast engine and one job.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
The exit code is non-zero when the build fails, a check fails or the run
does not finish in time.  --selftest runs the benchmark's own tests
instead.  See perfbench/NOTES.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("table1", "sweep", "flow", "serve")
GOLDEN = os.path.join("test", "table1.expected")
WS = os.path.join(".perfbench", "ws")
EXE = os.path.join(WS, "_build", "default", "perfbench", "wpbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_revision():
    """The git commit when run in a repository, else a digest of the sources."""
    head = os.path.join(".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as f:
                    return f.read().strip()
        else:
            return ref
    digest = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
        if os.path.isfile(top):
            with open(top, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def stage():
    """Lay out the benchmark's workspace: the repository's dune-project and
    lib/, the golden it checks against, and perfbench/src/ as perfbench/.
    _build is kept, so unchanged sources are not rebuilt."""
    for sub in ("lib", "perfbench", "test"):
        shutil.rmtree(os.path.join(WS, sub), ignore_errors=True)
    os.makedirs(os.path.join(WS, "test"))
    shutil.copy2("dune-project", WS)
    shutil.copy2(GOLDEN, os.path.join(WS, "test"))
    shutil.copytree("lib", os.path.join(WS, "lib"))
    shutil.copytree(os.path.join("perfbench", "src"), os.path.join(WS, "perfbench"))


def run(cmd, env, timeout, stdout=None):
    """Run [cmd] to completion; kill it and wait if it overruns."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return 124


def dune(target, env):
    return run(["dune", "build", "--root", WS, "--cache=disabled", target], env,
               BUILD_TIMEOUT_S, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")

    for needed in ("dune-project", "lib", GOLDEN, os.path.join("perfbench", "src")):
        if not os.path.exists(needed):
            print(f"run.py: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2

    env = dict(os.environ)
    # The engine and job count are passed explicitly; these must not
    # reach the library's defaults either.
    env.pop("WIREPIPE_ENGINE", None)
    env.pop("WIREPIPE_JOBS", None)
    env["DUNE_CACHE"] = "disabled"
    # One malloc arena: memory freed by one service thread is reused by
    # the next instead of lying in a per-thread arena, so serve's peak RSS
    # does not depend on which arena each thread happened to get.
    env["MALLOC_ARENA_MAX"] = "1"
    stage()
    if args.selftest:
        return dune("@perfbench/runtest", env)
    code = dune("./perfbench/wpbench.exe", env)
    if code != 0:
        print(f"run.py: build failed ({code})", file=sys.stderr)
        return code or 1
    sys.stdout.flush()
    return run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--commit", source_revision(), "--nproc", str(os.cpu_count())],
               env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
