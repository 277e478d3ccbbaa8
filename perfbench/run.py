#!/usr/bin/env python3
"""Build and run the COPS-HTTP benchmark.

    python3 perfbench/run.py --workload hot --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The script builds cmd/copshttp and the
benchmark's own commands (perfbench/cmd/bench, perfbench/cmd/tracedserver)
from source into .bench_build/, with the Go build cache kept there too, and
then replaces itself with the bench command, which prints the result as the
last line of standard output. Workloads are described in
perfbench/workloads.json.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config")):
        path = BUILD / sub
        path.mkdir(parents=True, exist_ok=True)
        env[key] = str(path)
    env["GOMODCACHE"] = str(BUILD / "gopath" / "mod")
    env["GOTOOLCHAIN"] = "local"
    env["GOTELEMETRY"] = "off"
    env["GOFLAGS"] = "-mod=mod"
    env["CGO_ENABLED"] = "0"
    return env


def build():
    if not (ROOT / "go.mod").is_file() or not (ROOT / "cmd" / "copshttp").is_dir():
        fail(f"no COPS-HTTP sources under {ROOT}: run from a checkout of the repository")
    env = go_env()
    out = BUILD / "bin"
    steps = [
        (ROOT, ["go", "build", "-o", str(out / "copshttp"), "./cmd/copshttp"]),
        (BENCH, ["go", "build", "-o", str(out) + os.sep, "./cmd/bench", "./cmd/tracedserver"]),
    ]
    for cwd, cmd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return out


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for p in sorted(ROOT.rglob("*")):
        rel = p.relative_to(ROOT)
        if rel.parts[0].startswith(".") or not p.is_file():
            continue
        if p.suffix in (".go", ".mod", ".json", ".py"):
            h.update(str(rel).encode())
            h.update(p.read_bytes())
    return "sources-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    out = build()
    # Generated files of an earlier run that was killed are left here.
    work = BUILD / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    argv = [str(out / "bench"), "-workload", args.workload, "-seed", str(args.seed),
            "-seconds", str(args.seconds), "-trace", str(args.trace),
            "-bin", str(out), "-work", str(work),
            "-workloads", str(BENCH / "workloads.json"), "-commit", revision()]
    sys.stdout.flush()
    os.execv(argv[0], argv)


if __name__ == "__main__":
    main()
