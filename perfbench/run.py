#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer figures.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Workloads (each a closed loop from one process):

  registry       `repro run all --full --threads <nproc>` again and again: the
                 14 scenarios and 144 points a user runs to regenerate the
                 paper. The only workload that reaches the runner pool.
  channel-fast   the 1375 kbps point (binary d=1, Ts=1600, 128-bit frames):
                 seeded ChannelSession::new + transmit_frame; every frame
                 must decode with edit distance 0.
  channel-dense  the 4400 kbps point (two-bit {0,3,5,8}, Ts=1000, 256-bit
                 frames, one clean noisy line); every frame must stay within
                 5% BER.

An operation is one `repro run all --full` invocation on `registry` and one
`transmit_frame` call on the channel workloads; set-up is one
`ChannelSession::new` (calibration) on the channel workloads and, on
`registry`, building the registry and planning its points in process. With
`--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it carries the per-layer ones, timed by a
separate traced run from outside the program (spans go to .bench_out/). A
layer that a workload's traced run does not call reports 0. The lines above
it print the figures under their descriptive names (tail latencies with
their sample counts among them), with the host and the seed.

Output checks count as operations: at the default seed (2022) the registry's
result tables must match the stored digests, at any other seed every scenario
must finish `ok` and every bandwidth row must be usable; channel frames must
meet their workload's error limit. The per-frame simulated counts of a fixed
reference session are compared with the stored ones on every channel
process; a difference is reported as a model change and counts as a failed
operation, so the run is not correct and its timings are not a speed result
(a change that alters the model on purpose re-records with `--record`).

`--record` rewrites the stored references (perfbench/reference/) from the
current code. The simulator has no hardware reference: the paper's bands are
the only accuracy check.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
from statistics import median
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("registry", "channel-fast", "channel-dense")
PR_SET_CHILD_SUBREAPER = 36
# The repository's default seed (bench::SEED): the stored table digests were
# recorded at it.
DEFAULT_SEED = 2022
# An untraced channel run (and the registry's set-up) is split over this many
# processes, and each figure is the median over them: a single process was
# seen to run up to a quarter faster or slower than the ones just before and
# after it.
PROCESSES = 5
# Share of a traced registry run spent on the one-thread point pass; the
# rest times `repro run all --full` for the runner's busy fraction.
POINTS_SHARE = 0.6


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def spawn(cmd, stdout=os.devnull):
    """Runs `cmd` from the repository root, its stdout going to `stdout`, and
    waits for it.

    A process's peak RSS counts the memory of the process it was forked from,
    and this interpreter is larger than the programs it measures. So a small
    `sh` starts `cmd` in the background and exits; the orphan is re-parented
    to this process (a child subreaper), which reaps it with its own usage.
    The background job holds off until `sh` has exited (its gate is a pipe
    this process closes then): a job that ended first could be reaped by
    `sh`, and its usage would be lost.

    Returns (wall seconds, user + system CPU seconds, peak RSS in MiB, exit
    code).
    """
    start = time.perf_counter()
    gate, release = os.pipe()
    try:
        launcher = subprocess.run(
            ["sh", "-c", 'exec 3<&0; { read gate <&3; exec "$@" 3<&-; } >"$0" & echo $!',
             stdout] + cmd,
            cwd=ROOT, stdin=gate, stdout=subprocess.PIPE, text=True, check=True)
    finally:
        os.close(gate)
        os.close(release)
    _, status, usage = os.wait4(int(launcher.stdout), 0)
    wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def become_subreaper():
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        fail(f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(ctypes.get_errno())}")


def build(target, repro):
    """Builds the perfbench binary (and `repro` if asked) from source."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [["cargo", "build", "--release", "--offline", "--manifest-path",
              os.path.join("perfbench", "Cargo.toml")]]
    if repro:
        steps.append(["cargo", "build", "--release", "--offline", "-p", "bench",
                      "--bin", "repro"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def host(seed):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "accuracy": "the simulator has no hardware reference; the paper's "
                    "bands are the only accuracy check",
    }


def read_digests(path):
    digests = {}
    with open(path) as f:
        for line in f:
            digest, name = line.split()
            digests[name] = digest
    return digests


def table_digests(out_dir):
    """sha256 of every result-table file `repro run` wrote, manifest excluded."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("manifest."):
            with open(os.path.join(out_dir, name), "rb") as f:
                digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


def load_table(path):
    with open(path) as f:
        table = json.load(f)
    return table["headers"], table["rows"]


def check_registry(out_dir, seed, code, problems):
    """Output checks of one `repro run all --full`: (attempted, failed)."""
    attempted, failed = 1, int(code != 0)
    if code != 0:
        problems.append(f"repro exited with {code}")
    try:
        headers, rows = load_table(os.path.join(out_dir, "manifest.json"))
    except (OSError, ValueError, KeyError) as error:
        problems.append(f"manifest unreadable: {error}")
        return attempted + 1, failed + 1
    status, points = headers.index("status"), headers.index("points")
    for row in rows:
        attempted += int(row[points])
        if row[status] != "ok":
            failed += int(row[points])
            problems.append(f"scenario {row[0]}: {row[status]}")
    if code != 0:
        return attempted, failed
    if seed == DEFAULT_SEED:
        expected = read_digests(os.path.join(REFERENCE, f"registry-{DEFAULT_SEED}.sha256"))
        found = table_digests(out_dir)
        for name in sorted(set(expected) | set(found)):
            attempted += 1
            if expected.get(name) != found.get(name):
                failed += 1
                problems.append(f"table {name} differs from the stored digest")
    else:
        headers, rows = load_table(os.path.join(out_dir, "bandwidth.json"))
        usable = headers.index("usable (<5% BER)?")
        for row in rows:
            attempted += 1
            if row[usable] != "yes":
                failed += 1
                problems.append(f"bandwidth row {row[0]} @ Ts={row[1]} is not usable")
    return attempted, failed


def run_registry(repro, seed, seconds, threads, problems):
    """Repeated full-registry runs: (wall, CPU, RSS) per run, attempted, failed."""
    out_dir = os.path.join(OUT, "registry")
    runs, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        shutil.rmtree(out_dir, ignore_errors=True)
        wall, cpu, rss, code = spawn([
            repro, "run", "all", "--full", "--threads", str(threads), "--seed",
            str(seed), "--no-progress", "--out", out_dir])
        runs.append((wall, cpu, rss))
        a, f = check_registry(out_dir, seed, code, problems)
        attempted += a
        failed += f
    return runs, attempted, failed


def registry(args, target, nproc, problems):
    repro = os.path.join(target, "release", "repro")
    if args.trace:
        points = perfbench(target, ["points", "--seed", str(args.seed), "--seconds",
                                    str(POINTS_SHARE * args.seconds), "--spans",
                                    os.path.join(OUT, f"spans-registry-{args.seed}.csv")])
        runs, attempted, failed = run_registry(
            repro, args.seed, (1 - POINTS_SHARE) * args.seconds, nproc, problems)
        layer = {k: v for k, v in points.items() if k.startswith(("bench.", "runner."))}
        layer["runner.busy_frac"] = median([cpu / (nproc * wall) for wall, cpu, _ in runs])
        report = [("point_passes", points["passes"], "count"),
                  ("registry_runs", len(runs), "count")]
        if points["failed"]:
            problems.append(f"{int(points['failed'])} registry points failed")
        return layer, report, attempted + points["attempted"], failed + points["failed"]

    setup = median([perfbench(target, ["setup", "--seed", str(args.seed)])["setup_s"]
                    for _ in range(PROCESSES)])
    runs, attempted, failed = run_registry(repro, args.seed, args.seconds, nproc, problems)
    walls = [wall for wall, _, _ in runs]
    cpus = [cpu for _, cpu, _ in runs]
    rss = max(r for _, _, r in runs)
    e2e = {
        "setup_s": setup,
        "op_ms_p50": 1e3 * median(walls),
        "cpu_ms_per_op": 1e3 * median(cpus),
        "peak_rss_mb": rss,
    }
    report = [
        ("registry_s", median(walls), "s"),
        ("registry_cpu_s", median(cpus), "s"),
        ("registry_runs", len(runs), "count"),
        ("threads", nproc, "count"),
        ("setup_s", setup, "s"),
        ("peak_rss_mb", rss, "MB"),
    ]
    return e2e, report, attempted, failed


def perfbench(target, argv):
    """Runs the perfbench binary; returns its metrics plus its CPU and RSS."""
    out = os.path.join(OUT, "perfbench.json")
    _, cpu, rss, code = spawn([os.path.join(target, "release", "perfbench")] + argv, out)
    if code != 0:
        fail(f"perfbench {' '.join(argv)} exited with {code}")
    with open(out) as f:
        metrics = json.loads(f.read().strip().splitlines()[-1])
    metrics["process_cpu_s"] = cpu
    metrics["process_rss_mb"] = rss
    return metrics


def counts_match(workload, counts, problems):
    with open(counts) as f:
        found = f.read()
    with open(os.path.join(REFERENCE, f"{workload}.counts")) as f:
        expected = f.read()
    if found != expected:
        problems.append(
            f"model change: the reference session's per-frame simulated counts differ "
            f"from perfbench/reference/{workload}.counts (not a speed result)")
        return False
    return True


def channel(args, target, problems):
    counts = os.path.join(OUT, f"{args.workload}.counts")

    def run(seconds, extra=()):
        m = perfbench(target, ["channel", args.workload, "--seed", str(args.seed),
                               "--seconds", str(seconds), "--counts", counts, *extra])
        if m["failed"]:
            problems.append(f"{int(m['failed'])} of {int(m['attempted'])} "
                            f"frames/sessions failed")
        # The reference-count check is one more operation of the process.
        m["counts_match"] = counts_match(args.workload, counts, problems)
        m["attempted"] += 1
        m["failed"] += int(not m["counts_match"])
        return m

    if args.trace:
        m = run(args.seconds, ["--spans",
                               os.path.join(OUT, f"spans-{args.workload}-{args.seed}.csv")])
        layer = {k: v for k, v in m.items()
                 if k.startswith(("wb_channel.", "sim_core.", "sim_cache.", "trace."))}
        layer["wb_channel.score_exact_frac"] = m["exact_frac"]
        layer["wb_channel.ber_pct"] = m["ber_pct"]
        report = [("frames", m["frames"], "count"),
                  ("counts_match_reference", m["counts_match"], "")]
        return layer, report, m["attempted"], m["failed"]

    runs = [run(args.seconds / PROCESSES) for _ in range(PROCESSES)]

    def mid(key):
        return median([m[key] for m in runs])

    frames = sum(m["frames"] for m in runs)
    e2e = {
        "setup_s": mid("setup_s"),
        "op_ms_p50": mid("frame_ms_p50"),
        "cpu_ms_per_op": median([1e3 * m["process_cpu_s"] / max(m["frames"], 1)
                                 for m in runs]),
        "peak_rss_mb": max(m["process_rss_mb"] for m in runs),
    }
    report = [
        ("setup_s", e2e["setup_s"], "s"),
        ("frames_per_s", mid("frames_per_s"), "1/s"),
        ("frame_us_p50", 1e3 * e2e["op_ms_p50"], "us"),
        ("frame_us_p90", 1e3 * mid("frame_ms_p90"), "us"),
        ("frame_us_p99", 1e3 * mid("frame_ms_p99"), "us"),
        ("frame_us_samples", sum(m["steady_frames"] for m in runs), "count"),
        # A session's first frame also builds its Machine; it is left out of
        # the quantiles above and shown here.
        ("first_frame_us_p50", 1e3 * mid("first_frame_ms_p50"), "us"),
        ("frames", frames, "count"),
        ("processes", PROCESSES, "count"),
        ("sim_maccess_per_s", mid("sim_maccess_per_s"), "M/s"),
        ("ber_pct", sum(m["ber_pct"] * m["frames"] for m in runs) / max(frames, 1), "%"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        ("counts_match_reference", all(m["counts_match"] for m in runs), ""),
    ]
    return (e2e, report, sum(m["attempted"] for m in runs),
            sum(m["failed"] for m in runs))


def record(target):
    """Rewrites the stored references from the current code at the default seed."""
    build(target, repro=True)
    os.makedirs(REFERENCE, exist_ok=True)
    out_dir = os.path.join(OUT, "record")
    shutil.rmtree(out_dir, ignore_errors=True)
    _, _, _, code = spawn([os.path.join(target, "release", "repro"), "run", "all",
                              "--full", "--seed", str(DEFAULT_SEED), "--no-progress",
                              "--out", out_dir])
    if code != 0:
        fail(f"repro run exited with {code}")
    with open(os.path.join(REFERENCE, f"registry-{DEFAULT_SEED}.sha256"), "w") as f:
        for name, digest in table_digests(out_dir).items():
            f.write(f"{digest}  {name}\n")
    for workload in WORKLOADS[1:]:
        counts = os.path.join(REFERENCE, f"{workload}.counts")
        perfbench(target, ["channel", workload, "--seconds", "0.01", "--counts", counts])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not (args.record or args.workload):
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    for required in ("Cargo.toml", "crates", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail(f"{required} not found: run from a checkout of the repository", code=2)
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(OUT, exist_ok=True)
    become_subreaper()
    if args.record:
        record(target)
        return

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    build(target, repro=args.workload == "registry")
    machine = host(args.seed)
    problems = []
    if args.workload == "registry":
        values, report, attempted, failed = registry(args, target, machine["nproc"], problems)
    else:
        values, report, attempted, failed = channel(args, target, problems)
    attempted, failed = int(attempted), int(failed)

    metrics = {}
    for entry in wanted:
        # Layers this workload's traced run does not call did no work here.
        metrics[entry["name"]] = {"value": values.get(entry["name"], 0.0),
                                  "unit": entry["unit"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record_path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as f:
        json.dump({"host": machine, "workload": args.workload, "trace": args.trace,
                   "seconds": args.seconds, "problems": problems,
                   "report": {name: value for name, value, _ in report},
                   "result": result}, f, indent=1)

    print(f"host: cpu={machine['cpu_model']!r} nproc={machine['nproc']} "
          f"seed={args.seed} workload={args.workload} trace={args.trace}")
    print(f"note: {machine['accuracy']}")
    for name, value, unit in report:
        print(f"  {name:<34} {value!s:<24} {unit}")
    print(f"  {'ops_failed_frac':<34} {failed / max(attempted, 1)!s:<24} "
          f"({failed} of {attempted} operations)")
    for problem in problems:
        print(f"  problem: {problem}")
    for name, entry in metrics.items():
        print(f"  {name:<34} {entry['value']!s:<24} {entry['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
