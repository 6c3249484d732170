#!/usr/bin/env python3
"""End-to-end sweep benchmark: spec to verified records, through
in-process threads, the supervised --spawn fleet and the sbn_sweepd
daemon. README.md documents the workloads and every metric.

    python3 e2ebench/run.py --workload grid_threads --seed 1 \
        --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all          # every workload

Run from the repository root (or any checkout of it). The first run
builds the harness from source into .bench_build/e2ebench. Each
iteration is a fresh harness process working in its own directory
under .bench_work/, which is removed afterwards. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"};
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Any verification failure makes the exit code nonzero.
"""

import argparse
import hashlib
import json
import os
import secrets
import shutil
import signal
import subprocess
import sys
import time

import e2elib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
HARNESS = os.path.join(BUILD_DIR, "sbn_e2e_harness")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("grid_threads", "grid_spawn", "daemon_jobs")
DEFAULT_SEED = 1
GRID_POINTS = 160
DAEMON_JOBS = 64
# Variables that would perturb or redirect an untraced measurement.
GUARDED_ENV = ("SBN_FAULT", "SBN_TRACE_DIR", "SBN_TRACE_CTX",
               "SBN_THREADS", "SBN_CACHE_DIR")
# Every harness process must end well inside the 180 s run budget.
HARNESS_TIMEOUT_S = 150
RUN_BUDGET_S = 160

END_TO_END = (
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("setup_s", "s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("host_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ebw_rel_err", "frac"),
)

PER_LAYER = (
    ("core.run_s", "s"),
    ("core.ns_per_cycle.cycleskip", "ns"),
    ("core.ns_per_cycle.faststat", "ns"),
    ("core.events_per_cycle", "events/cycle"),
    ("core.runs", "count"),
    ("exec.wall_s", "s"),
    ("exec.idle_frac", "frac"),
    ("exec.emit_s", "s"),
    ("shard.run_s.max", "s"),
    ("shard.run_s.mean", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.overhead_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.records_written", "count"),
    ("shard.records_deduped", "count"),
    ("shard.useful_frac", "frac"),
    ("supervisor.wall_s", "s"),
    ("supervisor.launch_s", "s"),
    ("supervisor.reap_s", "s"),
    ("supervisor.steals", "count"),
    ("supervisor.respawns", "count"),
    ("service.submit_s", "s"),
    ("service.queued_s", "s"),
    ("service.running_s", "s"),
    ("service.merging_s", "s"),
    ("service.results_s", "s"),
    ("service.results_bytes", "B"),
    ("service.journal_fsyncs_per_job", "count"),
    ("service.runner_cpu_s", "s"),
    ("service.status_polls_per_job", "count"),
    ("trace.overhead_frac", "frac"),
)
LAYERS = ("bench", "exec", "core", "shard", "supervisor", "service")
for _layer in LAYERS:
    PER_LAYER += (("layer.%s.share" % _layer, "frac"),)

LAYER_OF_KIND = {
    "bench.job": "bench", "bench.spec": "bench", "bench.verify": "bench",
    "bench.exec": "exec", "bench.emit": "exec", "bench.point": "core",
    "adaptive_round": "exec",
    "supervise": "supervisor", "attempt": "supervisor",
    "backoff": "supervisor", "hang_kill": "supervisor",
    "shard_run": "shard", "steal_run": "shard", "merge": "shard",
    "job": "service", "queued": "service", "running": "service",
    "merging": "service", "bench.submit": "service",
    "bench.results": "service",
}
WORKER_KINDS = ("shard_run", "steal_run")
# Layer self times must add up to the measured wall time within this.
SUM_SLACK_FRAC = 0.01
SUM_SLACK_S = 0.002


def log(message):
    print(message, file=sys.stderr, flush=True)


# --------------------------------------------------------------------
# Build, provenance, processes
# --------------------------------------------------------------------

def build():
    """Configure (once) and build the harness; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service",
                                       "sweeprun.hh")):
        log("e2ebench: no sbn source tree next to %s" % HERE)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("e2ebench: build step failed: %s" % " ".join(step))
            return False
    return os.access(HARNESS, os.X_OK)


def provenance(build_info):
    commit = "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse",
                               "--show-toplevel", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        lines = done.stdout.split()
        # Only this checkout's own repository names its commit.
        if (done.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return {
        "nproc": os.cpu_count(),
        "compiler": build_info.get("compiler", "?"),
        "build_type": build_info.get("build_type", "?"),
        "cxx_flags": build_info.get("cxx_flags", "?").strip(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def cpu_ticks():
    """The aggregate /proc/stat CPU tick counters (empty off Linux)."""
    try:
        with open("/proc/stat") as handle:
            return [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before, after):
    """Share of host CPU time stolen from this machine in between: a
    hint that a noisy run met contention from outside the benchmark."""
    deltas = [b - a for a, b in zip(before, after)]
    return deltas[7] / sum(deltas) if len(deltas) > 7 and sum(deltas) else 0.0


def run_harness(args, env_extra=None, log_path=None):
    """Run one harness process; return (parsed last JSON line or None,
    exit code). The process gets its own session, so a timeout kills
    the harness together with any daemon or worker it forked."""
    env = {k: v for k, v in os.environ.items() if k not in GUARDED_ENV}
    env.update(env_extra or {})
    t0 = time.monotonic_ns()
    cmd = [HARNESS] + args + ["--t0-ns=%d" % t0]
    with open(log_path or os.devnull, "ab") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=env, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, -1
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # nothing may outlive it
    except ProcessLookupError:
        pass
    lines = out.decode(errors="replace").strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        return None, proc.returncode


def mean(values):
    return sum(values) / len(values) if values else 0.0


# --------------------------------------------------------------------
# End-to-end figures of one iteration
# --------------------------------------------------------------------

def iteration_figures(workload, result):
    """(setup_s, [job seconds], sim_mcycles_per_s, host_cpu_s per job)."""
    t0, spec, first, end = (result["t0_ns"], result["spec_ns"],
                            result["first_ns"], result["end_ns"])
    setup = (first - t0) / 1e9
    wall = (end - spec) / 1e9
    rate = result["cycles"] / wall / 1e6
    if workload == "daemon_jobs":
        jobs = [(j["end_ns"] - j["submit_ns"]) / 1e9 if j["ok"]
                else float("inf") for j in result["jobs"]]
        cpu = result["cpu_s"] / max(1, result["jobs_attempted"])
    else:
        jobs = [wall]
        cpu = result["cpu_s"]
    return setup, jobs, rate, cpu


def account(accounting, workload, result, pin_broken):
    """Book one iteration. `pin_broken`: the seed's reference stream
    itself differs from digests.json, so no grid record is right."""
    if result is None:
        accounting.lost(DAEMON_JOBS if workload == "daemon_jobs"
                        else GRID_POINTS)
    elif workload == "daemon_jobs":
        accounting.add(result["jobs_attempted"], result["jobs_failed"],
                       result["jobs_refused"])
    elif pin_broken:
        accounting.lost(result["points"])
    else:
        accounting.add(result["points"], result["points_failed"])


def ebw_rel_err(workload, result, ref):
    """EBW-weighted mean relative error of FastStat against CycleSkip:
    sum |FastStat - CycleSkip| / sum CycleSkip over the points. The
    weighting keeps the few low-EBW points, whose relative noise is
    largest, from dominating the figure from one seed to the next."""
    pairs = []
    if workload == "daemon_jobs":
        for job in result["jobs"]:
            cycleskip = ref["jobs"][job["index"]]["ebw_cycleskip"]
            pairs += list(zip(job["ebw"], cycleskip))
    else:
        pairs = list(zip(ref["ebw_faststat"], result["ebw"]))
    total = sum(c for _, c in pairs)
    return sum(abs(f - c) for f, c in pairs) / total if total else 0.0


# --------------------------------------------------------------------
# Per-layer figures of one traced iteration
# --------------------------------------------------------------------

def sidecar_telemetry(folder):
    paths = []
    for dirpath, _, files in os.walk(folder):
        paths += [os.path.join(dirpath, f) for f in files
                  if f.startswith("telemetry-") and f.endswith(".jsonl")]
    return e2elib.load_telemetry_lines(sorted(paths))


def worker_split(kernel_s, worker_s):
    """Split worker spans between the kernel and the shard layer by the
    kernel's share of all worker time (from the workers' telemetry)."""
    fraction = min(1.0, kernel_s / worker_s) if worker_s > 0 else 0.0

    def split(span):
        if span.kind in WORKER_KINDS:
            return [("core", fraction), ("shard", 1.0 - fraction)]
        return None
    return split


def layer_of(span):
    return LAYER_OF_KIND.get(span.kind, "bench")


def supervisor_figures(spans):
    """launch/reap gaps between each attempt and its worker span."""
    launch, reap = [], []
    for attempt in (s for s in spans if s.kind == "attempt"):
        workers = [c for c in attempt.children if c.kind in WORKER_KINDS]
        for worker in workers:
            launch.append(worker.start - attempt.start)
            reap.append(attempt.end - worker.end)
    return launch, reap


class LayerTally:
    """Per-job sums of per-layer figures over every traced job."""

    def __init__(self):
        self.jobs = 0
        self.sums = {}
        self.shares = {}
        self.self_s = {}
        self.wall = 0.0
        self.attributed = 0.0
        self.max_sum_error = 0.0

    def add(self, name, value):
        self.sums[name] = self.sums.get(name, 0.0) + value

    def attribute(self, root, wall, split=None):
        """Attribute one job's root span and check the sum."""
        e2elib.nest_cross_process(root)
        totals = e2elib.attribute(root, layer_of, split)
        for layer, seconds in totals.items():
            self.shares[layer] = self.shares.get(layer, 0.0) + seconds
        for span in e2elib.walk(root):
            layer = layer_of(span)
            self.self_s[layer] = (self.self_s.get(layer, 0.0)
                                  + e2elib.self_time(span))
        total = sum(totals.values())
        self.wall += wall
        self.attributed += total
        self.max_sum_error = max(self.max_sum_error, abs(total - wall)
                                 - SUM_SLACK_FRAC * wall)
        self.jobs += 1

    def per_job(self, name):
        return self.sums.get(name, 0.0) / self.jobs if self.jobs else 0.0


def tally_kernel(tally, tele, cycles, kernel):
    """The core layer's figures of one job from its telemetry."""
    tally.add("core.run_s", tele.get("tmr.sim.run_ns", 0) / 1e9)
    tally.add("core.cycles", cycles)
    tally.add("core.kernel_ns." + kernel, tele.get("tmr.sim.run_ns", 0))
    tally.add("core.heap_events", tele.get("ctr.sim.heap_events", 0))
    tally.add("core.runs", tele.get("ctr.sim.runs", 0))


def tally_fleet(tally, root, tele, points, deduped):
    """The shard and supervisor figures of one supervised job; returns
    the split that attributes its worker spans."""
    spans = list(e2elib.walk(root))
    kernel_s = tele.get("tmr.sim.run_ns", 0) / 1e9
    worker_s = sum(s.duration for s in spans if s.kind in WORKER_KINDS)
    runs = [s.duration for s in spans if s.kind == "shard_run"]
    if runs:
        tally.add("shard.run_s.max", max(runs))
        tally.add("shard.run_s.mean", mean(runs))
        tally.add("shard.imbalance", max(runs) / mean(runs))
    tally.add("shard.overhead_s", worker_s - kernel_s)
    tally.add("shard.merge_s",
              sum(s.duration for s in spans if s.kind == "merge"))
    tally.add("shard.records_written",
              tele.get("ctr.shard.records_written", 0))
    tally.add("shard.records_deduped", deduped)
    tally.add("shard.points", points)
    tally.add("supervisor.wall_s",
              sum(s.duration for s in spans if s.kind == "supervise"))
    launch, reap = supervisor_figures(spans)
    tally.add("supervisor.launch_s", mean(launch))
    tally.add("supervisor.reap_s", mean(reap))
    attempts = [s for s in spans if s.kind == "attempt"]
    tally.add("supervisor.steals",
              sum(1 for s in attempts if "steal_points" in s.attrs))
    tally.add("supervisor.respawns",
              sum(1 for s in attempts if "shard" in s.attrs
                  and s.attrs.get("attempt", "0") != "0"))
    return worker_split(kernel_s, worker_s)


def tally_grid(workload, result, folder, tally):
    spans = e2elib.load_spans(os.path.join(folder, "trace"))
    root = next(s for s in e2elib.link(spans) if s.kind == "bench.job")
    wall = (result["end_ns"] - result["spec_ns"]) / 1e9
    own = result["telemetry"]
    split = None
    if workload == "grid_threads":
        tally_kernel(tally, own, result["cycles"], "cycleskip")
        tally.add("exec.wall_s", result["exec_ns"] / 1e9)
        tally.add("exec.emit_s", result["emit_ns"] / 1e9)
        tally.add("exec.threads_wall_s",
                  result["threads"] * result["exec_ns"] / 1e9)
    else:
        tele = sidecar_telemetry(os.path.join(folder, "spawn"))
        tally_kernel(tally, tele, result["cycles"], "cycleskip")
        split = tally_fleet(tally, root, tele, result["points"],
                            own.get("ctr.shard.records_deduped", 0))
    tally.attribute(root, wall, split)


def tally_daemon(result, folder, tally):
    spans = e2elib.load_spans(os.path.join(folder, "trace"))
    roots = e2elib.link(spans)
    daemon_jobs = {s.name: s for s in roots if s.kind == "job"}
    clients = {s.attrs.get("job"): s for s in roots
               if s.kind == "bench.job"}
    fsyncs = (result["daemon_metrics"] or {}).get("journal_fsyncs", 0)
    state = os.path.join(folder, "state")
    for job in result["jobs"]:
        if not job["ok"]:
            continue
        root = clients[str(job["job"])]
        daemon_span = daemon_jobs.get("job %d" % job["job"])
        if daemon_span is not None:
            e2elib.adopt(root, daemon_span)
        tele = sidecar_telemetry(os.path.join(state, "job-%d" % job["job"]))
        tally_kernel(tally, tele, job["cycles"], "faststat")
        # The runner merges in its own process and leaves no telemetry
        # behind; with a complete merge the duplicates are the excess.
        written = tele.get("ctr.shard.records_written", 0)
        split = tally_fleet(tally, root, tele, job["points"],
                            max(0, written - job["points"]))
        all_spans = list(e2elib.walk(root))
        tally.add("service.submit_s",
                  (job["ack_ns"] - job["submit_ns"]) / 1e9)
        for kind in ("queued", "running", "merging"):
            tally.add("service.%s_s" % kind,
                      sum(s.duration for s in all_spans if s.kind == kind))
        tally.add("service.results_s",
                  (job["results_end_ns"] - job["results_start_ns"]) / 1e9)
        tally.add("service.results_bytes", job["bytes"])
        tally.add("service.journal_fsyncs_per_job",
                  fsyncs / max(1, result["jobs_attempted"]))
        tally.add("service.runner_cpu_s", job["runner_cpu_s"])
        tally.add("service.status_polls_per_job", job["polls"])
        tally.attribute(root, (job["end_ns"] - job["submit_ns"]) / 1e9,
                        split)


def per_layer_metrics(tally, overhead_frac):
    per = tally.per_job
    cycles = tally.sums.get("core.cycles", 0.0)
    values = {name: 0.0 for name, _ in PER_LAYER}
    for name, _ in PER_LAYER:
        if name in tally.sums:
            values[name] = per(name)
    if cycles:
        values["core.ns_per_cycle.cycleskip"] = (
            tally.sums.get("core.kernel_ns.cycleskip", 0.0) / cycles)
        values["core.ns_per_cycle.faststat"] = (
            tally.sums.get("core.kernel_ns.faststat", 0.0) / cycles)
        values["core.events_per_cycle"] = (
            tally.sums.get("core.heap_events", 0.0) / cycles)
    threads_wall = tally.sums.get("exec.threads_wall_s", 0.0)
    if threads_wall:
        values["exec.idle_frac"] = (
            1.0 - tally.sums.get("core.run_s", 0.0) / threads_wall)
    written = tally.sums.get("shard.records_written", 0.0)
    if written:
        values["shard.useful_frac"] = (
            tally.sums.get("shard.points", 0.0) / written)
    for layer in LAYERS:
        values["layer.%s.share" % layer] = (
            tally.shares.get(layer, 0.0) / tally.wall if tally.wall else 0.0)
    values["trace.overhead_frac"] = overhead_frac
    return values


# --------------------------------------------------------------------
# One workload run
# --------------------------------------------------------------------

def verify_reference(workload, seed, ref):
    """Pin the default seed's grid stream to the checked-in digest."""
    if workload == "daemon_jobs" or seed != DEFAULT_SEED:
        return []
    with open(DIGESTS) as handle:
        pinned = json.load(handle)["grid_stream"]
    if (ref["digest"], ref["bytes"]) != (pinned["fnv1a64"],
                                         pinned["bytes"]):
        return ["seed %d grid stream %s/%d differs from digests.json "
                "%s/%d" % (seed, ref["digest"], ref["bytes"],
                           pinned["fnv1a64"], pinned["bytes"])]
    return []


def run_workload(workload, seed, seconds, trace):
    if not trace:
        inherited = [name for name in GUARDED_ENV if os.environ.get(name)]
        if inherited:
            log("e2ebench: refusing to measure with %s set"
                % ", ".join(inherited))
            return 3
    started = time.monotonic()
    if not build():
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, "%s-%d-%s" % (
        workload, os.getpid(), secrets.token_hex(4)))
    os.makedirs(work)
    try:
        ref_path = os.path.join(work, "reference.txt")
        harness_log = os.path.join(work, "harness.log")
        ref, code = run_harness(
            ["--workload=" + workload, "--mode=ref", "--seed=%d" % seed,
             "--dir=" + work, "--ref=" + ref_path], None, harness_log)
        if ref is None or not ref.get("ok"):
            log("e2ebench: reference run failed (exit %s)" % code)
            return 2
        errors = verify_reference(workload, seed, ref)
        pin_broken = bool(errors)

        accounting = e2elib.Accounting()
        setups, jobs, rates, cpus, rss = [], [], [], [], []
        rel_errs, digests = [], set()
        traced_rates, tally = [], LayerTally()
        build_info = {}
        iteration = 0
        ticks = cpu_ticks()
        measure_start = time.monotonic()
        # A traced run needs at least one untraced and one traced
        # iteration, however short --seconds is.
        while ((time.monotonic() - measure_start < seconds
                or (trace and iteration < 2))
               and time.monotonic() - started < RUN_BUDGET_S):
            traced = trace and iteration % 2 == 1
            folder = os.path.join(work, "it-%d" % iteration)
            os.makedirs(folder)
            env = {}
            args = ["--workload=" + workload, "--mode=run",
                    "--seed=%d" % seed, "--dir=" + folder,
                    "--ref=" + ref_path]
            if traced:
                os.makedirs(os.path.join(folder, "trace"))
                env["SBN_TRACE_DIR"] = os.path.join(folder, "trace")
                args.append("--traced=1")
            result, code = run_harness(args, env, harness_log)
            iteration += 1
            account(accounting, workload, result, pin_broken)
            if result is None:
                errors.append("iteration %d died (exit %s)"
                              % (iteration, code))
                shutil.rmtree(folder, ignore_errors=True)
                continue
            build_info = result["build"]
            errors += ["iteration %d: %s" % (iteration, e)
                       for e in result["errors"]]
            if workload != "daemon_jobs":
                digests.add(result["digest"])
            setup, job_times, rate, cpu = iteration_figures(workload,
                                                            result)
            if traced:
                traced_rates.append(rate)
                if result["ok"]:
                    if workload == "daemon_jobs":
                        tally_daemon(result, folder, tally)
                    else:
                        tally_grid(workload, result, folder, tally)
            else:
                setups.append(setup)
                jobs += job_times
                rates.append(rate)
                cpus.append(cpu)
                rss.append(result["maxrss_kb"] / 1024.0)
                rel_errs.append(ebw_rel_err(workload, result, ref))
            shutil.rmtree(folder, ignore_errors=True)
        steal = steal_share(ticks, cpu_ticks())
        if len(digests) > 1:
            errors.append("record streams differ between iterations")
        if not rates:
            errors.append("no untraced iteration completed")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = provenance(build_info)
    info["cpu_steal"] = "%.2f%%" % (100 * steal)
    print("e2ebench %s seed=%d trace=%d: %d iteration(s); fail_frac=%.6g "
          "(%d failed of %d attempted, %d refused)"
          % (workload, seed, int(trace), iteration, accounting.fail_frac,
             accounting.failed, accounting.attempted, accounting.refused))
    print("  provenance: " + " ".join("%s=%s" % kv for kv in info.items()))
    for error in errors[:20]:
        print("  FAIL: " + error)

    if trace:
        overhead = (e2elib.median(rates) / e2elib.median(traced_rates) - 1.0
                    if rates and traced_rates else 0.0)
        values = per_layer_metrics(tally, overhead)
        print_layer_report(workload, tally, values)
        if tally.max_sum_error > SUM_SLACK_S:
            errors.append("layer self times miss the wall time by %.4f s"
                          % tally.max_sum_error)
        units = dict(PER_LAYER)
    else:
        tail, percentile, count = e2elib.tail_percentile(jobs)
        values = {
            "sim_mcycles_per_s": e2elib.median(rates),
            "setup_s": e2elib.median(setups),
            "job_s_p50": e2elib.median(jobs),
            "job_s_tail": tail,
            "host_cpu_s": e2elib.median(cpus),
            "peak_rss_mb": max(rss) if rss else 0.0,
            "ebw_rel_err": e2elib.median(rel_errs),
        }
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            note = ""
            if name == "job_s_tail":
                note = "  (p%.1f of %d jobs)" % (percentile, count)
            print("  %-20s %14.6g %s%s" % (name, values[name], unit, note))
        print("  %-20s %14.6g frac  (failed / attempted)"
              % ("fail_frac", accounting.fail_frac))

    correct = not errors and accounting.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, accounting.attempted),
        "failed": accounting.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


def print_layer_report(workload, tally, values):
    print("  per-layer (traced run, %d job(s), mean per job):"
          % tally.jobs)
    for name, unit in PER_LAYER:
        print("    %-34s %14.6g %s" % (name, values[name], unit))
    wall = tally.wall
    print("  layer wall shares of %.4f s job time (exclusive attribution;"
          " classic self time in brackets):" % wall)
    for layer in LAYERS:
        seconds = tally.shares.get(layer, 0.0)
        print("    %-12s %10.4f s  %6.2f%%  [%10.4f s]"
              % (layer, seconds, 100.0 * seconds / wall if wall else 0.0,
                 tally.self_s.get(layer, 0.0)))
    print("    sum          %10.4f s  vs wall %.4f s (slack %.0f%% + %.0f ms)"
          % (tally.attributed, wall, 100 * SUM_SLACK_FRAC,
             1000 * SUM_SLACK_S))
    print("  trace.overhead_frac = %.4g (untraced / traced throughput - 1)"
          % values["trace.overhead_frac"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    # Every workload in a fresh process of its own.
    worst = 0
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        worst = max(worst, done.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
