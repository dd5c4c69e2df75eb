#!/usr/bin/env python3
"""Build and run the inliner benchmark.

    python3 perfbench/run.py --workload suite|compile|serve --seed N \
        --seconds S --trace 0|1

Run from the root of the repository.  Builds perfbench/main.exe with
dune (the first build compiles the whole library), then runs one
workload in one process and relays its output: the last line of
standard output is the result object.  Build output goes to standard
error.  The host fingerprint's build facts (flambda, source revision)
are passed to main.exe through the environment.
"""

import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def revision():
    """The git commit, or a digest of the sources outside a git checkout."""
    if not os.path.exists(".git"):
        return sources_digest()
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return sources_digest()


def sources_digest():
    h = hashlib.sha1()
    for top in ("dune-project", "dune", "lib", "bin", "perfbench"):
        for base, dirs, files in os.walk(top) if os.path.isdir(top) else [("", [], [top])]:
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(base, f)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "sources-sha1:" + h.hexdigest()


def flambda():
    try:
        out = subprocess.run(
            ["ocamlfind", "ocamlopt", "-config-var", "flambda"],
            capture_output=True, text=True, timeout=30,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            print(f"perfbench: {need} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if build.returncode != 0:
        return build.returncode
    env["PERFBENCH_COMMIT"] = revision()
    env["PERFBENCH_FLAMBDA"] = flambda()
    try:
        run = subprocess.run([EXE] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
