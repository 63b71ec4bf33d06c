#!/usr/bin/env python3
"""End-to-end screening benchmark: builds the program, runs one workload, and
prints its metrics.  See README.md in this directory.

One run of one workload (run from the root of a source checkout):

    python3 e2ebench/run.py --workload screen-2bxg-m3-hertz --seed 1 \
        --seconds 10 --trace 0

Every workload, untraced and traced, exiting non-zero on any failed check:

    python3 e2ebench/run.py --all

The last stdout line of a single-workload run is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
# Fresh processes per untraced run that only set up and dock the warm-up
# ligand; with the measured process they give the medians of setup_s and
# first_dock_s.
PROBE_PROCESSES = 6
PROCESS_TIMEOUT_S = 150

# Work size per run: the library (screens) or job count (serve) that takes
# about --seconds on a 4-core Xeon with AVX2 (seconds of timed region per
# ligand or per job, measured there).
WORKLOADS = {
    "screen-2bxg-m3-hertz": {"unit_s": 0.70, "min": 12, "step": 1},
    "screen-2bsm-m1-jupiter": {"unit_s": 0.53, "min": 12, "step": 1},
    # Jobs come in sixes: 2BSM/2BXG alternate and every third job resumes.
    "serve-mixed-resume": {"unit_s": 1.40, "min": 6, "step": 6},
}


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(2)


def work_size(workload, seconds):
    spec = WORKLOADS[workload]
    n = round(seconds / spec["unit_s"] / spec["step"]) * spec["step"]
    return max(spec["min"], n)


def checkout_env(root):
    """Environment for child processes: temporary files (the compiler's
    included) stay inside the checkout."""
    tmp = os.path.join(root, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(root):
    """Configures and builds e2e_bench under .bench_build; returns its path."""
    build_dir = os.path.join(root, BUILD_DIR, "e2e")
    exe = os.path.join(build_dir, "e2e_bench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "e2ebench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2e_bench", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                           env=checkout_env(root))
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return exe


def run_process(exe, args, env):
    """Runs e2e_bench once; returns its result object."""
    r = subprocess.run([exe] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=PROCESS_TIMEOUT_S, env=env)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        fail(f"e2e_bench exited {r.returncode}: {' '.join(args)}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def source_digest(root):
    """sha256 over the program and benchmark sources, for provenance when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as f:
        head = f.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as f:
            return f.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def end_to_end(r, probes):
    ligands, wall = r["ligands"], r["wall_s"]
    return {
        "ligands_per_s": ligands / wall,
        "jobs_per_s": r["jobs"] / wall,
        "setup_s": statistics.median([p["setup_s"] for p in probes + [r]]),
        "first_dock_s": statistics.median([p["first_dock_s"] for p in probes + [r]]),
        "peak_rss_mb": r["peak_rss_mb"],
        # The negated mean best energy: positive, so relative bounds read
        # the usual way.
        "binding_affinity_mean": -r["best_energy_mean"],
        "model_s_per_ligand": r["model_s"] / ligands,
    }


def run_workload(root, exe, workload, seed, seconds, trace):
    """One benchmark run; returns (result dict, provenance, notes)."""
    count = work_size(workload, seconds)
    work = os.path.join(root, BUILD_DIR, "work", f"{workload}-s{seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    trace_dir = os.path.join(root, BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, f"{workload}-seed{seed}.json")
    common = ["--workload", workload, "--seed", str(seed), "--count", str(count)]
    env = checkout_env(root)
    notes = []
    try:
        probes = []
        if not trace:
            for k in range(PROBE_PROCESSES):
                probes.append(run_process(exe, common + ["--dir", f"{work}/probe{k}",
                                                         "--mode", "probe"], env))
        untraced = run_process(exe, common + ["--dir", f"{work}/run", "--mode", "run"], env)
        procs = [untraced]
        if trace:
            traced = run_process(exe, common + ["--dir", f"{work}/traced", "--mode", "traced",
                                                "--trace-out", trace_out], env)
            procs.append(traced)
            notes.append(f"chrome trace: {os.path.relpath(trace_out, root)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for p in procs for f in p["failures"]]
    failed = max(p["failed"] for p in procs)
    if trace and traced["energies"] != untraced["energies"]:
        diff = [k for k in untraced["energies"]
                if traced["energies"].get(k) != untraced["energies"][k]]
        failures.append(f"traced best energies differ from untraced on {len(diff)} of "
                        f"{len(untraced['energies'])} ligands")
        failed = untraced["attempted"]
    if trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = traced["region_s"] / untraced["wall_s"]
        probe_pair = (traced["probe_start_s"], traced["probe_end_s"])
        notes.append(f"vs.dock_s_tail is p{metrics['vs.dock_s_tail_pct']:.0f} of "
                     f"{metrics['vs.dock_count']:.0f} docks")
    else:
        metrics = end_to_end(untraced, probes)
        probe_pair = (untraced["probe_start_s"], untraced["probe_end_s"])
    notes.append(f"host probe: {probe_pair[0]:.4f} s at start, {probe_pair[1]:.4f} s at end")
    result = {
        "correct": not failures and failed == 0,
        "attempted": untraced["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    provenance = dict(untraced["provenance"])
    provenance["workload"] = workload
    provenance["work_size"] = count
    provenance["git_commit"] = git_commit(root) or "unknown (no git metadata)"
    provenance["source_sha256"] = source_digest(root)
    return result, provenance, notes + failures


def report(root, bench, workload, seed, seconds, trace, exe):
    """Runs one workload and prints it; returns the result dict."""
    result, provenance, notes = run_workload(root, exe, workload, seed, seconds, trace)
    defs = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in defs}
    if set(units) != set(result["metrics"]):
        fail(f"metrics {sorted(set(result['metrics']) ^ set(units))} disagree with "
             "BENCHMARK.json")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for line in notes:
        print(line)
    for m in defs:
        print(f"{workload} {m['name']} = {result['metrics'][m['name']]:.6g} {m['unit']}")
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": units[name]}
                         for name in units}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.all == bool(args.workload):
        fail("give exactly one of --workload or --all")

    root = os.getcwd()
    bench_path = os.path.join(root, "BENCHMARK.json")
    for need in (bench_path, os.path.join(root, "src", "CMakeLists.txt"),
                 os.path.join(root, "e2ebench", "CMakeLists.txt")):
        if not os.path.isfile(need):
            fail(f"run from the root of a source checkout: {os.path.relpath(need, root)} "
                 "is missing")
    with open(bench_path) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]

    exe = build(root)
    if args.workload:
        result = report(root, bench, args.workload, args.seed, seconds, args.trace, exe)
        print(json.dumps(result))
        return 0

    ok = True
    for w in bench["workloads"]:
        for trace in (0, 1):
            started = time.monotonic()
            result = report(root, bench, w["name"], args.seed, seconds, trace, exe)
            print(f"{w['name']} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"({time.monotonic() - started:.1f} s)")
            ok = ok and result["correct"]
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
