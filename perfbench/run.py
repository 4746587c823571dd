#!/usr/bin/env python3
"""scoris benchmark: one workload a run, timed from outside the program.

    python3 perfbench/run.py --workload est_flat --seed 42 --seconds 20 --trace 0

Run from the root of a source checkout.  The script builds the `scoris` CLI
and the benchmark helper (perfbench/tool.cpp) into $CARGO_TARGET_DIR
(default .bench_build), generates the workload's inputs from the seed, runs
the real program for --seconds, checks every m8 it writes against an
in-process scoris::Session reference, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (a
shorter end-to-end phase plus an in-process replay that times each layer's
public calls).  perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

# Batch workloads: the program's arguments after the scoris binary, run in
# the work directory.
BATCH = {
    "est_flat": ["--bank1", "bank1.fa", "--bank2", "bank2.fa"],
    "genome_sparse": ["--bank1", "bank1.fa", "--bank2", "bank2.fa"],
    "est_budget": ["search", "--index", "ref.scix", "--bank2", "bank2.fa",
                   "--strand", "both", "--memory-budget-mb", "48",
                   "--delivery-budget-kb", "256", "--tmp-dir", "tmp"],
}
WORKLOADS = list(BATCH) + ["served_small"]

SETUP_REPS = 3      # `scoris index` builds per batch run (median)
MIN_REPS = 3        # batch invocations per run, at least
CLIENTS = 2         # closed-loop connections on served_small
WARMUP = 3          # untimed queries per connection and daemon launch
SESSIONS = 5        # daemon launches per served run (median set-up)
READY_TIMEOUT = 60  # seconds to wait for the daemon's listening line
KILL_AFTER = 120    # seconds before a hung program is killed (a failure)

PER_LAYER = [
    "seqio.parse_s", "seqio.bases", "filter.dust_s", "filter.masked_bases",
    "index.bank1_build_s", "index.bank2_build_s", "index.positions",
    "index.resident_bytes", "index.stats_bytes", "store.load_s",
    "store.file_bytes", "core.scan_s", "core.hit_pairs", "core.order_aborts",
    "core.hsps", "core.hsp_yield", "core.gapped_s", "core.gapped_extensions",
    "core.skipped_contained", "core.below_cutoff", "core.alignments",
    "core.gapped_yield", "exec.merge_s", "exec.spilled_runs",
    "exec.spill_bytes", "exec.peak_delivery_bytes", "api.m8_s",
    "api.m8_bytes", "net.connect_ms", "net.overhead_ms", "daemon.server_ms",
    "daemon.busy_refusals", "trace.unaccounted_s", "trace.overhead_s",
]
# Counters that must repeat exactly between two traced replays.
EXACT = ["core.hit_pairs", "core.order_aborts", "core.hsps",
         "core.gapped_extensions", "core.alignments", "exec.spilled_runs"]


class BenchError(Exception):
    """Set-up failed: no result can be printed."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def threads():
    return len(os.sched_getaffinity(0))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build():
    """Configure once, then build the CLI and the helper (no-op when fresh)."""
    for needed in ("CMakeLists.txt", "src"):
        if not (ROOT / needed).exists():
            raise BenchError(f"{ROOT / needed} is missing; run from a scoris "
                             "source checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(threads()),
                  "--target", "scoris_cli", "perfbench_tool"])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    build_type = "unknown"
    for line in (out / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    return out / "scoris" / "scoris", out / "perfbench_tool", build_type


def run_json(cmd, cwd):
    """Run a helper command and parse the JSON object it prints."""
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=KILL_AFTER)
    if p.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} failed: "
                         + p.stderr.strip())
    return json.loads(p.stdout.strip().splitlines()[-1])


# Processes are signalled with os.kill and reaped with os.wait4 only:
# Popen.poll/send_signal would reap the child and lose its rusage.
def exited(p):
    return os.waitid(os.P_PID, p.pid,
                     os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None


def reap(p, timeout):
    """wait4 on `p`, killing it first if it outlives `timeout` seconds."""
    killer = threading.Timer(timeout, os.kill, (p.pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        killer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return ru


def run_measured(cmd, cwd):
    """Run the program once; wall, CPU and peak RSS come from wait4."""
    with open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                             stderr=err)
        ru = reap(p, KILL_AFTER)
        wall = time.perf_counter() - t0
    if p.returncode != 0:
        log(f"{' '.join(map(str, cmd))} exited {p.returncode}: "
            + (cwd / "stderr.txt").read_text(errors="replace").strip()[-500:])
    return {"ok": p.returncode == 0, "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0}


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tail_ms(samples_ms):
    """p95 when at least ten samples lie beyond it, else the median."""
    if len(samples_ms) >= 200:
        return statistics.quantiles(samples_ms, n=20)[-1]
    return statistics.median(samples_ms)


class Tally:
    """Operations attempted and failed; each failure is logged to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok, why="", count=1):
        self.attempted += count
        if not ok:
            self.failed += count
            log(f"failure: {why}")

    def add_many(self, attempted, failed, why):
        self.add(True, count=attempted - failed)
        if failed:
            self.add(False, why, count=failed)


# ---- batch workloads --------------------------------------------------------

def setup_reference(scoris, work, tally, reps):
    """`scoris index` of bank 1, `reps` times; returns the build seconds."""
    times = []
    for _ in range(reps):
        r = run_measured([scoris, "index", "--bank", "bank1.fa", "--out",
                          "ref.scix"], work)
        tally.add(r["ok"], "scoris index")
        times.append(r["wall_s"])
    return times


def batch_phase(name, scoris, work, ref_digest, seconds, min_reps, tally,
                corrupt):
    """Invocations back to back while the next one fits in `seconds`."""
    cmd = [scoris] + BATCH[name] + ["--threads", str(threads()), "--out",
                                    "out.m8"]
    runs = []
    start = time.perf_counter()
    while len(runs) < min_reps or (
            time.perf_counter() - start
            + statistics.median(r["wall_s"] for r in runs) < seconds):
        out = work / "out.m8"
        out.unlink(missing_ok=True)
        r = run_measured(cmd, work)
        if corrupt and not runs and out.exists():
            data = bytearray(out.read_bytes() or b"\0")
            data[0] ^= 1
            out.write_bytes(bytes(data))
        same = r["ok"] and out.exists() and sha256(out) == ref_digest
        tally.add(same, f"{name}: exit or m8 mismatch")
        runs.append(r)
    return runs


def batch_e2e(runs, setup):
    walls = [r["wall_s"] for r in runs]
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "query_p50_ms": statistics.median(walls) * 1e3,
        "query_p95_ms": tail_ms([w * 1e3 for w in walls]),
        "queries_per_s": len(walls) / sum(walls),
    }


# ---- served workload --------------------------------------------------------

def serve_session(scoris, tool, work, seconds, tally, stat, corrupt):
    """Launch `scoris serve`, load it for `seconds`, stop it."""
    cmd = [scoris, "serve", "--index", "ref.scix", "--listen", "unix:s.sock",
           "--threads", str(threads()), "--max-clients", str(CLIENTS + 2)]
    (work / "s.sock").unlink(missing_ok=True)
    ready = threading.Event()
    lines = []

    def drain(stream):
        for raw in stream:
            line = raw.decode(errors="replace")
            if len(lines) < 50:
                lines.append(line)
            if "listening on" in line:
                ready.set()

    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=work, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE)
    reader = threading.Thread(target=drain, args=(p.stderr,), daemon=True)
    reader.start()
    load = None
    try:
        while not ready.wait(0.001):
            if exited(p) or time.perf_counter() - t0 > READY_TIMEOUT:
                raise BenchError("scoris serve did not start: "
                                 + "".join(lines)[-500:])
        setup = time.perf_counter() - t0
        cmd = [tool, "load", "--dir", ".", "--connect", "unix:s.sock",
               "--clients", str(CLIENTS), "--seconds", str(seconds),
               "--warmup", str(WARMUP)]
        load = run_json(cmd + (["--stat"] if stat else [])
                        + (["--corrupt"] if corrupt else []), work)
    finally:
        if not exited(p):
            os.kill(p.pid, signal.SIGTERM)
        ru = reap(p, READY_TIMEOUT)
        reader.join()
        p.stderr.close()
    if load["errors"]:
        log(f"served_small: {load['errors']}")
    tally.add_many(load["attempted"], load["failed"], "served_small queries")
    tally.add(p.returncode == 0, f"scoris serve exited {p.returncode}")
    load.update(setup_s=setup, cpu_s=ru.ru_utime + ru.ru_stime,
                rss_mb=ru.ru_maxrss / 1024.0)
    return load


def served_phase(scoris, tool, work, seconds, tally, stat, corrupt):
    return [serve_session(scoris, tool, work, seconds / SESSIONS, tally,
                          stat, corrupt and i == 0)
            for i in range(SESSIONS)]


def served_e2e(sessions):
    lat = [x for s in sessions for x in s["latency_ms"]]
    if not lat:
        raise BenchError("served_small: no query completed")
    return {
        "wall_s": statistics.median(lat) / 1e3,
        "cpu_s": statistics.median(s["cpu_s"] / s["attempted"]
                                   for s in sessions),
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in sessions),
        "query_p50_ms": statistics.median(lat),
        "query_p95_ms": tail_ms(lat),
        "queries_per_s": sum(len(s["latency_ms"]) for s in sessions)
        / sum(s["timed_s"] for s in sessions),
    }


# ---- traced replay ----------------------------------------------------------

def replay(name, tool, work, reps, e2e, sessions, info, tally, ref_digest):
    """Per-layer metrics from the in-process replay, checked against e2e."""
    out = run_json([tool, "trace", "--workload", name, "--dir", ".",
                    "--threads", str(threads()), "--reps", str(reps)], work)
    reps_out = out["reps"]
    first = reps_out[0]["counts"]
    for rep in reps_out[1:]:
        for k in EXACT:
            tally.add(rep["counts"].get(k, 0) == first.get(k, 0),
                      f"{k} differs between traced replays")
    if name == "served_small":
        for rep in reps_out:
            tally.add(rep["m8_mismatches"] == 0, "replay m8 mismatch")
    else:
        tally.add(sha256(work / "trace.m8") == ref_digest,
                  "replay m8 differs from the end-to-end m8")

    m = {k: 0.0 for k in PER_LAYER}
    for k in first:
        m[k] = float(first[k])
    for k in {k for rep in reps_out for k in rep["seconds"]}:
        m[k] = statistics.median(rep["seconds"].get(k, 0.0) for rep in reps_out)
    m["core.hsp_yield"] = m["core.hsps"] / max(m["core.hit_pairs"], 1.0)
    m["core.gapped_yield"] = (m["core.alignments"]
                              / max(m["core.gapped_extensions"], 1.0))
    layer_s = sum(v for k, v in m.items()
                  if k.endswith("_s") and not k.startswith("trace."))
    replay_wall = statistics.median(rep["wall_s"] for rep in reps_out)
    if name == "served_small":
        # Per query: the one-off store load is set-up, not query work.
        layer_s -= m["store.load_s"]
        replay_wall = (replay_wall - m["store.load_s"]) / info["batches"]
        lat = [x for s in sessions for x in s["latency_ms"]]
        srv = [x for s in sessions for x in s["server_ms"]]
        m["net.connect_ms"] = statistics.median(
            x for s in sessions for x in s["connect_ms"])
        m["net.overhead_ms"] = statistics.median(
            a - b for a, b in zip(lat, srv))
        m["daemon.server_ms"] = statistics.median(srv)
        m["daemon.busy_refusals"] = float(sum(s["busy_refusals"]
                                              for s in sessions))
        layer_s += m["net.overhead_ms"] / 1e3
    m["trace.unaccounted_s"] = e2e["wall_s"] - layer_s
    m["trace.overhead_s"] = replay_wall - e2e["wall_s"]
    return m


# ---- main -------------------------------------------------------------------

def kernel(scoris):
    p = subprocess.run([scoris, "--kernel"], stdout=subprocess.PIPE,
                       text=True, check=True)
    return p.stdout.strip()


def commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        return p.stdout.strip() if p.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def bench(args):
    scoris, tool, build_type = build()
    work = build_dir().parent / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    gen = [tool, "gen", "--workload", args.workload, "--seed", str(args.seed),
           "--dir", ".", "--threads", str(threads())]
    if args.scale:
        gen += ["--scale", str(args.scale)]
    info = run_json(gen, work)
    served = args.workload == "served_small"
    ref_digest = None if served else sha256(work / "ref.m8")
    tally = Tally()

    # The traced run halves the end-to-end phase to leave room for the replay.
    seconds = args.seconds / 2 if args.trace else args.seconds
    # served_small needs the .scix once; its set-up is the daemon launch.
    setup = setup_reference(scoris, work, tally, 1 if served else SETUP_REPS)
    sessions = None
    if served:
        sessions = served_phase(scoris, tool, work, seconds, tally, args.trace,
                                args.corrupt)
        e2e = served_e2e(sessions)
    else:
        runs = batch_phase(args.workload, scoris, work, ref_digest, seconds,
                           2 if args.trace else MIN_REPS, tally, args.corrupt)
        e2e = batch_e2e(runs, setup)
        info["invocations"] = len(runs)

    if args.trace:
        # At least two replays, so the work counters can be compared.
        reps = 2 if served else max(2, min(8, int(seconds / e2e["wall_s"])))
        metrics = replay(args.workload, tool, work, reps, e2e, sessions, info,
                         tally, ref_digest)
    else:
        metrics = e2e

    # served_small: the digest of the per-batch reference digest list.
    info.update(seed=args.seed, commit=commit(), nproc=threads(),
                build_type=build_type, kernel_dispatched=kernel(scoris),
                m8_sha256=sha256(work / "ref_batches.tsv") if served
                else ref_digest)
    if served:
        info["timed_queries"] = sum(len(s["latency_ms"]) for s in sessions)
    print(json.dumps({"info": info}), flush=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-check hooks (perfbench/selfcheck.py): a tiny bank scale, and one
    # deliberately corrupted m8 that must count as a failure.
    ap.add_argument("--scale", type=float, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    try:
        return bench(args)
    except BenchError as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
