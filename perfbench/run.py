#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fig6_detailed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Builds the simulator libraries and the driver from source into
.bench_build/ (an optimized build; the driver refuses to time anything
else), runs each workload in its own process, and relays the driver's
output. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_DIR = HERE / "workloads"
# Per-workload driver deadline; a run is sized to finish far inside it.
RUN_TIMEOUT_S = 600


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def workload_names():
    return sorted(p.stem for p in WORKLOAD_DIR.glob("*.json"))


def build():
    """Configures (once) and builds the driver; returns its path."""
    build_dir = ROOT / ".bench_build" / "perfbench-relwithdebinfo"
    log = []
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        log.append(subprocess.run(cmd, capture_output=True, text=True))
    if not log or log[-1].returncode == 0:
        jobs = str(min(os.cpu_count() or 1, 4))
        log.append(subprocess.run(
            ["cmake", "--build", str(build_dir), "--target", "spear_perfbench",
             "-j", jobs], capture_output=True, text=True))
    if log[-1].returncode != 0:
        sys.stderr.write((log[-1].stdout + log[-1].stderr)[-6000:])
        fail("build failed", 1)
    return build_dir / "spear_perfbench"


def commit():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def src_digest():
    """sha256 over the simulator sources, for checkouts without git."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_one(exe, args, workload, host):
    cmd = [str(exe), "--workload", workload,
           "--workload-dir", str(WORKLOAD_DIR),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--ref-seed", str(args.ref_seed),
           "--profile-seed", str(args.profile_seed),
           "--reference", str(args.reference),
           "--out-dir", str(ROOT / ".bench_build" / "perfbench-out"),
           "--commit", host["commit"], "--src-digest", host["src_digest"]]
    if args.write_reference:
        cmd.append("--write-reference")
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    return r.returncode, r.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1,
                    help="row-order seed")
    ap.add_argument("--seconds", type=float, default=10,
                    help="timed-phase length per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ref-seed", type=int, default=42,
                    help="workload reference input seed")
    ap.add_argument("--profile-seed", type=int, default=20040426,
                    help="workload profiling input seed")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json")
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate the reference rows (default seeds)")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a "
             "checkout of the repository")
    names = workload_names() if args.workload == "all" else [args.workload]
    for n in names:
        if n not in workload_names():
            fail(f"unknown workload '{n}' (have: "
                 f"{', '.join(workload_names())})")

    exe = build()
    host = {"commit": commit(), "src_digest": src_digest()}
    results = {}
    for n in names:
        code, out = run_one(exe, args, n, host)
        lines = out.rstrip("\n").split("\n")
        if code != 0:
            sys.stdout.write(out)
            fail(f"{n}: driver exited {code}", code)
        if args.write_reference:
            sys.stdout.write(out)
            continue
        if len(names) == 1:
            sys.stdout.write(out)
            return
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        results[n] = json.loads(lines[-1])

    if results:
        keys = list(next(iter(results.values()))["metrics"])
        print(f"{'workload':16s}" + "".join(f"{k:>16s}" for k in keys) +
              f"{'failure_rate':>16s}")
        for n, r in results.items():
            rate = r["failed"] / r["attempted"]
            print(f"{n:16s}" + "".join(
                f"{r['metrics'][k]['value']:16.6g}" for k in keys) +
                f"{rate:16.6g}")
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()}}))


if __name__ == "__main__":
    main()
