#!/usr/bin/env python3
"""End-to-end benchmark of the wait-free consensus verifier.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Builds perfbench/job.exe with dune, then for
--seconds seconds spawns one fresh process per repetition of the workload
(cold caches, as a `wfc verify` user meets them), checks every job's verdict
and exact counts against perfbench/expected.json, and prints the figures.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1, untraced and traced repetitions alternate and the metrics are the
per-layer ones, computed from spans the traced repetitions record around
their calls into the library. The exit code is 0 only if every job was
correct (fail_ratio = 0).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
JOB_EXE = os.path.join("_build", "default", "perfbench", "job.exe")
SCRATCH = ".perfbench"  # spans, and the fleet socket of traced verify runs
WORKERS = 2  # fleet workers, capped at nproc
SETUP_PROBES = 15  # set-up-only processes per run, beside each repetition's own
REP_TIMEOUT_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def source_commit():
    """The git commit when run in a clone, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in sorted(paths):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "none (sources sha256 %s)" % digest.hexdigest()[:16]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout: no dune-project or lib/ here")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/job.exe"],
        capture_output=True, text=True, timeout=880)
    if proc.returncode != 0 or not os.path.isfile(JOB_EXE):
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("build failed")


def spawn(args):
    """Run job.exe in its own process group; return (spawn time in monotonic
    ns, its last stdout line parsed, process seconds) or raise RuntimeError.
    Whatever the outcome, every process of the group is gone on return."""
    cmd = [JOB_EXE] + args
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", "timed out after %d s" % REP_TIMEOUT_S
    finally:
        reap_group(proc)
    elapsed = (time.monotonic_ns() - t0) / 1e9
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %s: %s" % (" ".join(cmd), proc.returncode,
                                                 err.strip()[-2000:]))
    return t0, json.loads(lines[-1]), elapsed


def reap_group(proc):
    """Kill what is left of the process group (the workers of a crashed
    fleet coordinator) and wait until the group is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


# --- correctness --------------------------------------------------------------

def check_rep(spec, default_seed, results, first_seen):
    """The jobs of one repetition that are wrong, as reasons. [spec] pins
    each job's verdict and exact counts by job name. Jobs whose inputs the
    seed picks are named after those inputs and pinned for the default seed
    only; for another seed they must just reach [spec]'s seeded_verdict. A
    traced repetition must also reproduce the untraced ones exactly: every
    repetition is compared with the first that ran the same job."""
    problems = []
    for r in results:
        why = []
        want = spec["jobs"].get(r["job"])
        if want is None:
            seeded = spec.get("seeded_verdict")
            want = {"verdict": seeded if seeded and not default_seed
                    else "one of the pinned jobs"}
        if r["verdict"] != want["verdict"]:
            why.append("verdict %s, expected %s" % (r["verdict"], want["verdict"]))
        for key, value in want.get("counts", {}).items():
            if r["counts"].get(key) != value:
                why.append("%s %s, expected %d" % (key, r["counts"].get(key), value))
        for key, value in want.get("traced_counts", {}).items():
            if key in r["counts"] and r["counts"][key] != value:
                why.append("%s %d, expected %d" % (key, r["counts"][key], value))
        if r["witness"] != want.get("witness", r["witness"]):
            why.append("witness %r, expected %r" % (r["witness"], want["witness"]))
        prev = first_seen.setdefault(r["job"], r)
        if (prev["verdict"], prev["witness"]) != (r["verdict"], r["witness"]):
            why.append("verdict or witness differs between repetitions")
        for key in set(prev["counts"]) & set(r["counts"]):
            if prev["counts"][key] != r["counts"][key]:
                why.append("%s differs between repetitions (%d, %d)"
                           % (key, prev["counts"][key], r["counts"][key]))
        if why:
            problems.append("%s: %s" % (r["job"], "; ".join(why)))
    missing = spec["job_count"] - len(results)
    if missing > 0:
        problems += ["%d job(s) missing" % missing] * missing
    return problems


# --- the run ------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else float("nan")


def fastest(xs):
    """The run's fastest repetition. On a shared machine the CPU can run tens
    of percent slower for seconds at a time; that noise only ever adds time,
    so the minimum over many short repetitions tracks the program's own cost
    far more steadily than the median."""
    return min(xs) if xs else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = load_json("BENCHMARK.json")
    expected = load_json(os.path.join(HERE, "expected.json"))
    if args.workload not in expected or args.workload not in {
            w["name"] for w in bench["workloads"]}:
        fail("unknown workload %r" % args.workload)
    seed = expected["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    spec = expected[args.workload]
    default_seed = seed == expected["default_seed"]

    build()
    os.makedirs(SCRATCH, exist_ok=True)
    workers = min(WORKERS, nproc())
    common = ["--workload", args.workload, "--seed", str(seed),
              "--workers", str(workers)]
    spans_file = os.path.join(SCRATCH, "spans-%s.jsonl" % args.workload)

    attempted = failed = 0
    problems = []
    first_seen = {}
    setup, walls, cpus, rss, traced_walls, layers = [], [], [], [], [], []
    versions = set()
    start = time.monotonic()
    deadline = start + seconds

    def attempt(what, f):
        nonlocal attempted, failed
        try:
            return f()
        except (RuntimeError, ValueError) as e:
            attempted += 1
            failed += 1
            problems.append("%s: %s" % (what, e))
            return None

    for _ in range(SETUP_PROBES):
        got = attempt("set-up probe", lambda: spawn(common + ["--setup-only"]))
        if got:
            t0, line, _ = got
            setup.append((line["setup_end_ns"] - t0) / 1e9)

    rep_seconds = []
    rep = 0
    # another repetition starts while it should end no later than half a
    # repetition past the deadline; traced runs always finish their pair
    while rep == 0 or (args.trace and rep % 2 == 1) or (
            time.monotonic() + median(rep_seconds) / 2 <= deadline):
        traced = args.trace == 1 and rep % 2 == 1
        extra = ["--trace", "--spans", spans_file] if traced else []
        got = attempt("repetition %d" % rep, lambda: spawn(common + extra))
        rep += 1
        if got is None:
            if time.monotonic() > deadline:
                break
            continue
        t0, line, elapsed = got
        rep_seconds.append(elapsed)
        versions.add(line["ocaml"])
        why = check_rep(spec, default_seed, line["results"], first_seen)
        attempted += max(len(line["results"]), spec["job_count"])
        failed += len(why)
        problems += why
        if traced:
            traced_walls.append(line["wall_s"])
            layers.append(line["layers"])
        else:
            setup.append((line["setup_end_ns"] - t0) / 1e9)
            walls.append(line["wall_s"])
            cpus.append(line["cpu_s"])
            rss.append(line["peak_rss_mb"])

    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        values = {}
        for name in names:
            if name == "trace_overhead_s":
                values[name] = fastest(traced_walls) - fastest(walls)
            else:
                values[name] = median([l[name] for l in layers if name in l])
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        values = {"setup_s": median(setup), "wall_s": fastest(walls),
                  "cpu_s": fastest(cpus), "peak_rss_mb": median(rss)}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        names = [m["name"] for m in bench["end_to_end"]]
    if any(v != v for v in values.values()):  # NaN: nothing was measured
        failed = max(failed, 1)
        attempted = max(attempted, 1)
        problems.append("no repetition completed")
        values = {n: 0.0 if v != v else v for n, v in values.items()}

    correct = failed == 0
    print("provenance: nproc=%d ocaml=%s commit=%s seed=%d workers=%d workload=%s"
          % (nproc(), ",".join(sorted(versions)) or "?", source_commit(), seed,
             workers, args.workload))
    print("repetitions: %d untraced, %d traced, %d set-up probes, %.1f s"
          % (len(walls), len(traced_walls), SETUP_PROBES, time.monotonic() - start))
    print("wall_s by repetition: " + " ".join("%.4f" % w for w in walls))
    for job, r in first_seen.items():
        counts = " ".join("%s=%d" % kv for kv in r["counts"].items())
        print("job %-55s %-12s %s %s" % (job, r["verdict"], counts, r["witness"]))
    for p in problems[:20]:
        print("MISMATCH " + p)
    for name in names:
        print("%-30s %.6g %s" % (name, values[name], units[name]))
    print("%-30s %.6g %s" % ("fail_ratio", failed / max(attempted, 1), "ratio"))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
