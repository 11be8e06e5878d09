#!/usr/bin/env python3
"""Build and run the securestore benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload small-write --seed 1 --seconds 20 --trace 0

It builds the benchmark binary (a Go module in this directory that uses
the repository's packages) into .bench_build/, then runs it. The binary
spawns the replica processes, measures, checks every result and prints
the metrics; its last line of standard output is the JSON result. Build
output goes to standard error. Exits non-zero without a result when the
repository sources are missing or the build fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# The run itself must end within three minutes; the binary stops itself
# at 170 s and this is the backstop.
RUN_TIMEOUT_S = 175


def go_binary():
    found = shutil.which("go")
    if found:
        return found
    goroot = os.environ.get("GOROOT", "/usr/local/go")
    candidate = os.path.join(goroot, "bin", "go")
    return candidate if os.path.exists(candidate) else None


def source_id():
    """Identify the source tree: the git commit when there is one, else a
    digest of every Go source and module file outside the build dir."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "commit " + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    go = go_binary()
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2

    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # Keep every build artifact, temporary file and go command state inside
    # the checkout, and never reach out for a toolchain or module.
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "GOENV": "off",
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(BUILD, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--workdir", os.path.join(BUILD, "runs"),
           "--source", source_id()]
    # Own process group: on timeout the driver and its replicas go together.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 124
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGTERM)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
