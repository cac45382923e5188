#!/usr/bin/env python3
"""The specfetch benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. It builds `specfetch-repro` and the
`perfbench` probe binary from source (into $CARGO_TARGET_DIR, default
`.bench_build`), runs the workload, checks every output, and prints one
JSON object as the last line of stdout: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
perfbench/README.md explains the workloads, metrics and layers.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("paper-cold", "service-mix", "warm-store")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25    # BENCHMARK.json's run_seconds

EXPERIMENT_IDS = ["table2", "table3", "table4", "figure1", "figure2",
                  "table5", "table6", "figure3", "figure4", "table7"]
COLD_INSTRS = 1_000_000
WARM_INSTRS = 300_000
GOLDEN_INSTRS = 2_000
GOLDEN = "crates/service/tests/golden/all_2000.txt"
LISTING = "crates/service/tests/golden/list.json"
GOLDEN_RUNS = 9         # golden checks timed as paper-cold's set-up
PROC_TIMEOUT = 150      # seconds before a child process is killed

# Sample counts are fixed for a given --seconds, never cut by a clock,
# so every tail sits at the same percentile in every run.
COLD_RUNS = 2           # paper-cold: cold runs take 11-15 s each here
COLD_REPLAYS = 15       # warm `all` replays after each cold run: 30
# Rounds of single-experiment jobs per cold run: 120 jobs, 12 of them
# table2 (~0.25 s each; the others take ~30 ms), so the tail, the 11th
# largest, is the second-fastest table2 job: a 10 ms host scheduling
# slice moves it by a few per cent, where it moved a 30 ms job by a third.
COLD_JOB_ROUNDS = 6
WARM_JOB_ROUNDS = 4     # warm-store rounds of single-experiment jobs: 40 jobs
WARM_FILLS = 3          # warm-store store fills timed as set-up
WARM_ROUND = 5          # replays per warm-store round
WARM_ROUND_S = 2.5      # planned seconds per warm-store round
# Short samples (replays, single-experiment jobs, golden checks) during
# which the hypervisor stole CPU time from this VM are taken again,
# once each, up to this share of a sample's planned count.
RETAKE_SHARE = 0.5
PASS_S = 3.0            # planned seconds per service-mix pass

# service-mix job catalog. The first two are the job-server usage the
# repository documents: the sweep of README.md's "Running as a service"
# (at 500k, on the overlay and config-lockstep) and the `all` job CI's
# service-smoke job runs (.github/workflows/ci.yml). The other seven are
# small sweeps and experiments below the 200k overlay threshold, where
# grid points run on the engine one configuration at a time. Specs
# share windows, so a cold job may reuse the recordings (and grid
# points) of one before it. The table5 job's window is the one the
# fidelity figures are taken at.
FIDELITY_INSTRS = 20_000
SERVICE_CATALOG = [
    (500_000, "sweep", "policy=Res,Pess cache=8K penalty=5"),
    (2_000, "experiment", "all"),
    (FIDELITY_INSTRS, "experiment", "table5"),
    (FIDELITY_INSTRS, "sweep", "policy=Oracle,Opt,Res,Pess,Dec cache=8K,32K"),
    (50_000, "experiment", "table3"),
    (50_000, "sweep", "prefetch=off,nl,target,both policy=Res,Pess"),
    (100_000, "experiment", "figure3"),
    (100_000, "sweep", "width=2,4,8 policy=Res,Dec"),
    (100_000, "sweep", "assoc=1,2 line=16,32 policy=Opt,Res"),
]
CLIENTS = 2
# One running job per client, each on one core, so a job's time is its
# own work (perfbench/README.md gives the figures behind this).
SERVER_FLAGS = ["--jobs", str(CLIENTS), "--sequential"]
SERVER_STARTS = 15

# Per-layer span layers (wall-share seconds are reported per layer).
LAYERS = ["synth", "analysis", "trace.record", "trace.overlay", "core.lockstep",
          "core.engine", "trace.memo", "result_store.get", "result_store.put",
          "experiments.render", "process"]


class BenchError(Exception):
    """A set-up or build failure: the run prints no result."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- spans

class Spans:
    """Spans recorded by this script, in memory until the run ends."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.items = []
        self.lock = threading.Lock()
        self.next = 0
        self.tids = {}

    def new_id(self):
        with self.lock:
            self.next += 1
            return f"py.{self.next}"

    def record(self, sid, parent, name, layer, run, start_us, end_us):
        if not self.enabled:
            return
        with self.lock:
            tid = self.tids.setdefault(threading.get_ident(), len(self.tids) + 1)
            self.items.append({"id": sid, "parent": parent, "name": name, "layer": layer,
                               "run": run, "start_us": start_us, "end_us": end_us,
                               "pid": os.getpid(), "tid": tid})


def now_us():
    return time.time_ns() / 1000.0


def self_intervals(spans):
    """Each span's interval minus the union of its children's."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start_us"], s["end_us"]))
    out = {}
    for s in spans:
        lo, hi = s["start_us"], s["end_us"]
        cur, pieces = lo, []
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, lo), min(b, hi)
            if b <= cur:
                continue
            if a > cur:
                pieces.append((cur, a))
            cur = max(cur, b)
        if cur < hi:
            pieces.append((cur, hi))
        out[s["id"]] = pieces
    return out


def layer_times(spans, wall_lo, wall_hi):
    """Per-layer self time two ways, plus coverage of [wall_lo, wall_hi].

    `busy` sums self time per span (parallel spans add up). `share`
    splits each instant of wall time evenly among the layer spans
    active in their own code at that instant, so the shares of all
    layers add up to the covered wall time.
    """
    pieces = self_intervals(spans)
    busy = {layer: 0.0 for layer in LAYERS}
    share = {layer: 0.0 for layer in LAYERS}
    by_name = {}
    events = []
    for s in spans:
        if not s["layer"]:
            continue
        for a, b in pieces[s["id"]]:
            a, b = max(a, wall_lo), min(b, wall_hi)
            if b <= a:
                continue
            busy[s["layer"]] = busy.get(s["layer"], 0.0) + (b - a) / 1e6
            events.append((a, 1, s["layer"], s["name"]))
            events.append((b, -1, s["layer"], s["name"]))
    events.sort(key=lambda e: (e[0], e[1]))
    active = {}
    covered = 0.0
    last = None
    for t, kind, layer, name in events:
        if last is not None and active and t > last:
            dt = (t - last) / 1e6
            n = sum(active.values())
            covered += dt
            for (lay, nm), k in active.items():
                share[lay] = share.get(lay, 0.0) + dt * k / n
                by_name[nm] = by_name.get(nm, 0.0) + dt * k / n
        key = (layer, name)
        active[key] = active.get(key, 0) + kind
        if active[key] == 0:
            del active[key]
        last = t
    wall = (wall_hi - wall_lo) / 1e6
    return busy, share, by_name, (covered / wall if wall > 0 else 0.0)


def write_chrome_trace(path, spans):
    """Chrome trace-event JSON ("X" complete events), loadable in any
    trace viewer."""
    events = [{"name": s["name"], "cat": s["layer"] or "structure", "ph": "X",
               "ts": s["start_us"], "dur": max(0.0, s["end_us"] - s["start_us"]),
               "pid": s["pid"], "tid": s["tid"],
               "args": {"id": s["id"], "parent": s["parent"], "run": s["run"]}}
              for s in spans]
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# ------------------------------------------------------------ processes

def run_proc(cmd, stdout_path=None, timeout=PROC_TIMEOUT, stderr_path=None):
    """Runs `cmd` to completion; returns (exit code, wall s, peak RSS MiB)."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0
    finally:
        for f in (out, err):
            if f is not subprocess.DEVNULL:
                f.close()


def steal_ticks():
    """CPU time, in 1/100 s, that the hypervisor gave to other guests
    while this VM's CPUs had work to run: the `steal` column of
    /proc/stat. 0 where the host does not report it."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if len(fields) > 8 else 0
    except (OSError, ValueError):
        return 0


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    for cmd in (["cargo", "build", "--release", "--offline", "-p", "specfetch-service",
                 "--bin", "specfetch-repro"],
                ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]):
        if subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return (os.path.join(target, "release", "specfetch-repro"),
            os.path.join(target, "release", "perfbench"))


def read(path):
    with open(path, "rb") as f:
        return f.read()


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def dir_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


# ----------------------------------------------------------- statistics

def tail(samples):
    """The highest order statistic with at least ten samples beyond it:
    (value, percentile, sample count). Below eleven samples no value
    qualifies and the maximum is reported, at percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n >= 11:
        return xs[n - 11], 100.0 * (n - 10) / n, n
    return xs[-1], 100.0, n


class Run:
    """One workload run's shared state: paths, tools, checks, spans."""

    def __init__(self, args, repro, probe):
        self.args = args
        self.repro = repro
        self.probe = probe
        self.rng = random.Random(f"{args.workload}/{args.seed}")
        self.dir = os.path.abspath(os.path.join(
            ".bench_run", f"{args.workload}-seed{args.seed}-{os.getpid()}"))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.attempted = 0
        self.failed = 0
        self.details = {}
        self.spans = Spans(args.trace == 1)
        self.counter = 0
        self.retakes = {}

    def path(self, name):
        self.counter += 1
        return os.path.join(self.dir, f"{self.counter:04d}-{name}")

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"check failed: {what}")

    def proc(self, cmd, name, parent=None, run=""):
        """Runs a child; with a parent span, inside a `process` span
        whose id the child may use as its own spans' parent."""
        sid = self.spans.new_id()
        out, err = self.path(f"{name}.out"), self.path(f"{name}.err")
        start = now_us()
        code, wall, rss = run_proc([c.replace("{span}", sid) for c in cmd], out, stderr_path=err)
        if parent is not None:
            self.spans.record(sid, parent, name, "process", run, start, now_us())
        if code != 0:
            log(f"{name} exited {code}: {read(err).decode(errors='replace')[-2000:]}")
        return code, wall, rss, out

    def allow_retakes(self, kind, planned):
        self.retakes[kind] = self.retakes.get(kind, 0) + int(planned * RETAKE_SHARE)

    def sample(self, kind, take):
        """`take()` once, or twice when the hypervisor stole CPU time
        during the first attempt and `kind` has retakes left: the
        sample is then host contention, not the program. The second
        attempt counts either way. `details` records, per kind, the
        retakes and the samples kept although stolen from."""
        for attempt in (0, 1):
            before = steal_ticks()
            value = take()
            stolen = steal_ticks() > before
            if not stolen or attempt == 1 or self.retakes.get(kind, 0) <= 0:
                break
            self.retakes[kind] -= 1
            retaken = self.details.setdefault("retaken", {})
            retaken[kind] = retaken.get(kind, 0) + 1
        if stolen:
            kept = self.details.setdefault("stolen_kept", {})
            kept[kind] = kept.get(kind, 0) + 1
        return value

    def order(self):
        order = list(EXPERIMENT_IDS)
        self.rng.shuffle(order)
        return order

    def rounds(self, planned_s, least=2):
        """How many rounds of about `planned_s` seconds fill --seconds:
        a count fixed by --seconds, not by how fast this host is."""
        return max(least, round(self.args.seconds / planned_s))

    def cold(self, instrs, order, store, name, spans_path=None, parent=None):
        """The probe's `cold` command into a fresh store. Returns the
        program's own run time (the probe's checks that follow it are
        not timed), peak RSS, the report path, and the summary."""
        report, summary = self.path(f"{name}.report"), self.path(f"{name}.json")
        cmd = [self.probe, "cold", "--instrs", str(instrs), "--order", ",".join(order),
               "--result-dir", store, "--report", report, "--summary", summary]
        if spans_path:
            cmd += ["--spans", spans_path, "--parent", "{span}"]
        code, wall, rss, _ = self.proc(cmd, name, parent, "cold")
        self.check(code == 0, f"{name} exit code {code}")
        if code != 0:
            raise BenchError(f"{name} failed")
        s = json.loads(read(summary))
        # What the untimed part of the process (start-up, checks, exit) took.
        self.details.setdefault("probe_untimed_s", []).append(round(wall - run_seconds(s), 4))
        return run_seconds(s), rss, report, s

    def check_summary(self, s, name):
        """Output checks a probe made: failed cells, every result's slot
        accounting and window, and store completeness."""
        work = s["work"]
        self.check(s["failed_cells"] == 0, f"{name}: {s['failed_cells']} failed cells")
        self.check(s["fidelity"]["failed"] == 0, f"{name}: failed Table 5/6 cells")
        self.check(s.get("missing", 0) == 0, f"{name}: {s.get('missing')} points missing")
        self.attempted += work["results"]
        self.failed += work["bad"]
        if work["bad"]:
            log(f"{name}: {work['bad']} results fail slot accounting or window")

    def golden(self):
        """The golden check; returns its wall time."""
        return self.sample("golden", self._golden)

    def _golden(self):
        code, wall, _, out = self.proc([self.repro, "--experiment", "all", "--instrs",
                                        str(GOLDEN_INSTRS), "--quiet"], "golden")
        self.check(code == 0 and read(out) == read(GOLDEN),
                   f"--experiment all --instrs {GOLDEN_INSTRS} differs from {GOLDEN}")
        return wall

    def replay(self, instrs, store, expected, name):
        """A fresh `--experiment all` process over a filled store; its
        stdout must be the cold run's report."""
        code, wall, rss, out = self.proc([self.repro, "--experiment", "all", "--instrs",
                                          str(instrs), "--result-dir", store, "--quiet"], name)
        self.check(code == 0 and read(out) == expected, f"{name}: stdout differs from the cold run")
        return wall, rss

    def experiment_job(self, instrs, store, report, eid):
        """A fresh `--experiment <eid>` process over a filled store; its
        stdout must be that experiment's part of the cold report."""
        code, wall, _, out = self.proc([self.repro, "--experiment", eid, "--instrs",
                                        str(instrs), "--result-dir", store, "--quiet"],
                                       f"job-{eid}")
        self.check(code == 0 and read(out) == read(f"{report}.{eid}"),
                   f"--experiment {eid}: stdout differs from the cold run's {eid}")
        return wall

    def replays_and_jobs(self, instrs, store, report, n_replays, job_ids):
        """`n_replays` warm `all` replays with single-experiment jobs for
        `job_ids` spread evenly between them, so that a burst of host
        load falls on a few samples of each kind, not on all of one.
        Returns the replay walls, their peak RSSs and the job walls."""
        expected = read(report)
        self.allow_retakes("replay", n_replays)
        self.allow_retakes("job", len(job_ids))
        replays, rsss, jobs = [], [], []
        for k in range(n_replays):
            wall, rss = self.sample("replay", lambda: self.replay(instrs, store, expected,
                                                                   f"replay{k}"))
            replays.append(wall)
            rsss.append(rss)
            while len(jobs) * n_replays < (k + 1) * len(job_ids):
                eid = job_ids[len(jobs)]
                jobs.append(self.sample("job", lambda: self.experiment_job(instrs, store,
                                                                           report, eid)))
        return replays, rsss, jobs


def run_seconds(summary):
    """The program work a probe timed, in seconds."""
    return (summary["run_end_us"] - summary["run_start_us"]) / 1e6


def fidelity_metrics(fid):
    return {"ispi_mae": fid["ispi_mae"], "rank_tau": fid["rank_tau"]}


def work_metrics(work):
    def ratio(a, b):
        return a / b if b else 0.0
    return {
        "core.results": work["results"],
        "core.sim_cycles": work["cycles"],
        "core.correct_instrs": work["correct_instrs"],
        "core.wrong_fetches": work["wrong_fetches"],
        "core.useful_fetch_ratio": ratio(work["correct_fetches"], work["accesses"]),
        "core.slots_last_cycle_partial": work["unbalanced"],
        "cache.accesses": work["accesses"],
        "cache.misses": work["misses"],
        "cache.fills": work["fills"],
        "cache.bus_lines": work["bus_lines"],
        "cache.prefetch_issued": work["prefetch_issued"],
        "cache.prefetch_useful_ratio": ratio(work["prefetch_hits"], work["prefetch_issued"]),
        "bpred.cond_resolved": work["cond_resolved"],
        "bpred.mispredict_ratio": ratio(work["cond_mispredicted"], work["cond_resolved"]),
        "bpred.btb_hit_ratio": ratio(work["btb_hits"], work["btb_lookups"]),
    }


def latency_metrics(prefix, samples_ms, details):
    value, pct, n = tail(samples_ms)
    details[f"{prefix}_tail_ms"] = {"percentile": round(pct, 2), "samples": n}
    return {f"{prefix}_p50_ms": statistics.median(samples_ms), f"{prefix}_tail_ms": value}


def job_metrics(walls_s, details):
    """job_* and jobs_per_s of jobs that run one after another."""
    m = latency_metrics("job", [w * 1e3 for w in walls_s], details)
    m["jobs_per_s"] = len(walls_s) / sum(walls_s)
    return m


# ------------------------------------------------------------ paper-cold

def paper_cold(run):
    """Cold `--experiment all` at 1M instructions, experiments in seeded
    order, into a fresh store; after each, warm replays of that store
    and single-experiment jobs served from it."""
    # Set-up is the output check that precedes timing, run a few times.
    run.allow_retakes("golden", GOLDEN_RUNS)
    setups = [run.golden() for _ in range(GOLDEN_RUNS)]
    order = run.order()
    run.details["order"] = order

    # A traced run needs one untraced cold run as its reference. The
    # single-experiment jobs are shared out over the cold runs' stores.
    walls, rsss, replays, jobs, summary, report = [], [], [], [], None, None
    for _ in range(1 if run.args.trace else COLD_RUNS):
        store = run.path("store")
        wall, rss, rep, s = run.cold(COLD_INSTRS, order, store, "cold")
        run.check_summary(s, "cold")
        if report is not None:
            run.check(read(rep) == report, "cold report differs between rounds")
        report, summary = read(rep), s
        walls.append(wall)
        rsss.append(rss)
        if run.args.trace:
            break
        r, _, j = run.replays_and_jobs(COLD_INSTRS, store, rep, COLD_REPLAYS,
                                       order * COLD_JOB_ROUNDS)
        replays += r
        jobs += j
    run.details["report_digest"] = digest(report)

    if run.args.trace:
        return paper_cold_traced(run, order, walls[0], summary, report)
    wall_s = statistics.median(walls)
    m = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rsss),
        "sim_mips": summary["points_distinct"] * COLD_INSTRS / wall_s / 1e6,
        **fidelity_metrics(summary["fidelity"]),
        **job_metrics(jobs, run.details),
    }
    m.update(latency_metrics("replay", [w * 1e3 for w in replays], run.details))
    return m


def paper_cold_traced(run, order, untraced, summary, report):
    spans_path, store = run.path("cold-traced.spans"), run.path("store")
    wall, _, rep, s = run.cold(COLD_INSTRS, order, store, "cold-traced", spans_path,
                               run.spans.new_id())
    run.check_summary(s, "cold-traced")
    run.check(read(rep) == report, "traced cold report differs from the untraced one")
    run.check(s["work"] == summary["work"], "traced work counts differ from the untraced ones")
    m = layer_metrics(run, spans_path, s["run_start_us"], s["run_end_us"], s)
    m["trace.untraced_wall_s"] = untraced
    m["trace.overhead_s"] = wall - untraced
    m["result_store.mb"] = dir_bytes(os.path.join(store, "v1")) / 2**20
    m.update(work_metrics(s["work"]))
    return m


# ------------------------------------------------------------ warm-store

def warm_store(run):
    """Fresh `--experiment all` processes replaying a store filled at
    300k instructions during set-up (experiments in seeded order), and
    single-experiment jobs served from the same store."""
    order = run.order()
    run.details["order"] = order
    # Set-up is the fill, made several times into fresh stores for a
    # steady median; the replays read the last store.
    fill_walls, report = [], None
    for i in range(1 if run.args.trace else WARM_FILLS):
        store = run.path("store")
        fill_s, _, report_path, fill = run.cold(WARM_INSTRS, order, store, f"fill{i}")
        run.check_summary(fill, f"fill{i}")
        if report is not None:
            run.check(read(report_path) == report, f"fill{i} report differs from fill0's")
        report = read(report_path)
        fill_walls.append(fill_s)
    run.details["report_digest"] = digest(report)
    # One untimed replay first: the fills ran the probe, so this is the
    # run's first `specfetch-repro` process, and it loads the binary.
    run.replay(WARM_INSTRS, store, report, "replay-warmup")

    n_replays = WARM_ROUND * (1 if run.args.trace else run.rounds(WARM_ROUND_S))
    replays, rsss, jobs = run.replays_and_jobs(
        WARM_INSTRS, store, report_path, n_replays,
        [] if run.args.trace else order * WARM_JOB_ROUNDS)
    rounds = [sum(replays[i:i + WARM_ROUND]) for i in range(0, n_replays, WARM_ROUND)]

    if run.args.trace:
        return warm_store_traced(run, store, report, replays, fill)
    wall_s = statistics.median(rounds)
    m = {
        "wall_s": wall_s,
        "setup_s": statistics.median(fill_walls),
        "peak_rss_mb": max(rsss),
        "sim_mips": WARM_ROUND * fill["points_distinct"] * WARM_INSTRS / wall_s / 1e6,
        **fidelity_metrics(fill["fidelity"]),
        **job_metrics(jobs, run.details),
    }
    m.update(latency_metrics("replay", [w * 1e3 for w in replays], run.details))
    return m


def warm_store_traced(run, store, report, untraced, fill):
    root = run.spans.new_id()
    files = []
    walls = []
    start = now_us()
    for i in range(WARM_ROUND):
        spans_path, rep, summ = (run.path(f"replay-traced{i}.{x}") for x in ("spans", "report", "json"))
        code, wall, _, _ = run.proc(
            [run.probe, "replay", "--instrs", str(WARM_INSTRS), "--result-dir", store,
             "--report", rep, "--summary", summ, "--spans", spans_path, "--parent", "{span}"],
            f"replay-traced{i}", root, "replay")
        if code != 0:
            raise BenchError(f"traced replay {i} exited {code}")
        run.check(read(rep) == report, f"traced replay {i} differs from the cold run")
        files.append(spans_path)
        walls.append(wall)
        s = json.loads(read(summ))
        run.check(s["failed_cells"] == 0, "traced replay failed cells")
    end = now_us()
    run.spans.record(root, "", "traced", "", "replay", start, end)
    # A replay is a whole process, so the `process` layer (start-up and
    # exit outside the probe's spans) counts. Layer figures are per
    # replay: the sums over the round divided by the number of replays.
    m = layer_metrics(run, files, start, end, s, scale=1.0 / WARM_ROUND, process=True)
    m["trace.untraced_wall_s"] = statistics.median(untraced)
    m["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced)
    m["trace.traced_wall_s"] = statistics.median(walls)
    m["experiments.points_requested"] = fill["points_requested"]
    m["experiments.points_distinct"] = fill["points_distinct"]
    m["result_store.mb"] = dir_bytes(os.path.join(store, "v1")) / 2**20
    m.update(work_metrics(fill["work"]))
    return m


# ----------------------------------------------------------- service-mix

def job_sequences(rng, n):
    """`n` passes' job sequences. Passes come in pairs whose cold jobs
    run in opposite orders, so within a run every spec precedes the
    other specs of its window as often as it follows them."""
    seqs = []
    for i in range(n):
        if i % 2 == 0:
            firsts = list(range(len(SERVICE_CATALOG)))
            rng.shuffle(firsts)
        else:
            firsts.reverse()
        seqs.append(job_sequence(rng, firsts))
    return seqs


def job_sequence(rng, order):
    """Every catalog spec once cold ("first"), in `order`, and once
    repeated, as (spec, role) pairs. One spec, chosen by the seed, is
    repeated right behind its first ("overlap"): the other client
    submits it as soon as the first is submitted, so the two jobs run
    at once and the repeat waits for the grid points its first is
    still computing. Every other repeat ("repeat") comes at a seeded
    place later and is submitted once its first finished."""
    firsts = list(reversed(order))
    eager = rng.choice(firsts)
    seq, pending = [], []
    while firsts or pending:
        if firsts and (not pending or rng.random() < 0.5):
            k = firsts.pop()
            seq.append((k, "first"))
            if k == eager:
                seq.append((k, "overlap"))
            else:
                pending.append(k)
        else:
            seq.append((pending.pop(rng.randrange(len(pending))), "repeat"))
    return seq


def http_call(addr, method, path, body=None):
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=PROC_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Server:
    """A `specfetch-repro --serve` process on an ephemeral port running
    one job per client at a time, each on one core (SERVER_FLAGS): a
    job's turnaround is then its own work, not a wait behind the other
    client's job or a share of the cores that job's grid threads take."""

    def __init__(self, run, name):
        """Starts the server and waits until it has answered its first
        request; `setup_s` is that wait."""
        self.err = open(run.path(f"{name}.err"), "wb")
        self.addr = None
        listening = threading.Event()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([run.repro, "--serve", "127.0.0.1:0"] + SERVER_FLAGS,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)

        def drain():
            # Copies the server's stderr to a file until it exits, so the
            # pipe never fills; the first line announces the address.
            for line in self.proc.stderr:
                if self.addr is None and line.startswith(b"[serve] listening on "):
                    self.addr = line.split()[-1].decode()
                    listening.set()
                self.err.write(line)
            listening.set()

        self.reader = threading.Thread(target=drain)
        self.reader.start()
        try:
            listening.wait(30)
            if self.addr is None:
                raise BenchError("server did not start")
            status, body = http_call(self.addr, "GET", "/experiments")
            self.setup_s = time.perf_counter() - t0
            run.check(status == 200 and body == read(LISTING),
                      f"{name}: GET /experiments differs from {LISTING}")
        except BaseException:
            self.stop()
            raise

    def job(self, spec, submitted=None):
        """One job's HTTP round trips: POST /jobs, GET .../stream (which
        ends when the job does), GET .../result. Sets `submitted` once
        the server accepted the job. Returns each call's span-clock
        start and end and the result body."""
        instrs, kind, value = SERVICE_CATALOG[spec]
        body = json.dumps({kind: value, "instrs": instrs})
        stamps = []
        for step in ("submit", "stream", "result"):
            a = now_us()
            if step == "submit":
                status, resp = http_call(self.addr, "POST", "/jobs", body)
                ok = status == 201
                job_id = json.loads(resp)["id"] if ok else None
                if submitted is not None:
                    submitted.set()
            else:
                status, resp = http_call(self.addr, "GET", f"/jobs/{job_id}/{step}")
                ok = status == 200
            stamps.append((step, a, now_us()))
            if not ok:
                raise BenchError(f"{step} answered {status}")
        return stamps, resp

    def stop(self):
        """Graceful shutdown (SIGINT drains); returns peak RSS in MiB."""
        self.proc.send_signal(signal.SIGINT)
        timer = threading.Timer(30, self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
            self.reader.join()
            self.proc.stderr.close()
            self.err.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, usage.ru_maxrss / 1024.0


def service_pass(run, seq, name, hits=False):
    """One closed-loop pass: a fresh server, CLIENTS client threads each
    submitting its next job as soon as its previous one finished. With
    `hits`, every spec is then submitted once more from one client, so
    each of those jobs is a memo hit that waits for no other job."""
    run.details.setdefault("sequences", []).append([[k, r] for k, r in seq])
    server = Server(run, name)
    jobs = []
    lock = threading.Lock()
    cursor = [0]
    errors = []
    # A repeat's wait for its first is not part of its time.
    submitted = {k: threading.Event() for k, role in seq if role == "first"}
    finished = {k: threading.Event() for k, role in seq if role == "first"}

    def timed_job(pos, k, role):
        run_id = f"{name}-job-{pos}"
        jid = run.spans.new_id()
        t0, s0 = time.perf_counter(), now_us()
        stamps, body = server.job(k, submitted.get(k) if role == "first" else None)
        ms = (time.perf_counter() - t0) * 1e3
        for step, a, b in stamps:
            run.spans.record(run.spans.new_id(), jid, f"http.{step}", "service", run_id, a, b)
        run.spans.record(jid, "", f"job:{pos}", "", run_id, s0, now_us())
        steps = {step: (b - a) / 1e3 for step, a, b in stamps}
        return {"pos": pos, "spec": k, "role": role, "ms": ms, "body": body,
                "start_us": s0, "end_us": stamps[-1][2],
                **{f"{step}_ms": v for step, v in steps.items()}}

    def client():
        while True:
            with lock:
                pos = cursor[0]
                cursor[0] += 1
            if pos >= len(seq) or errors:
                return
            k, role = seq[pos]
            if role != "first":
                (finished if role == "repeat" else submitted)[k].wait(PROC_TIMEOUT)
            try:
                job = timed_job(pos, k, role)
                with lock:
                    jobs.append(job)
            except (OSError, ValueError, BenchError) as e:
                with lock:
                    errors.append(f"job {pos}: {e}")
            finally:
                if role == "first":
                    submitted[k].set()
                    finished[k].set()

    try:
        t0 = time.perf_counter()
        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        hit_jobs = []
        if hits and not errors:
            try:
                hit_jobs = [timed_job(len(seq) + k, k, "repeat")
                            for k in range(len(SERVICE_CATALOG))]
            except (OSError, ValueError, BenchError) as e:
                errors.append(f"memo-hit job: {e}")
    finally:
        code, rss = server.stop()
    run.check(code == 0, f"{name}: server exit code {code}")
    for e in errors:
        run.check(False, e)
    return {"wall": wall, "setup": server.setup_s, "rss": rss, "jobs": jobs, "seq": seq,
            "hits": hit_jobs}


def write_specs(run, seq):
    path = run.path("specs.tsv")
    with open(path, "w") as f:
        for k, _ in seq:
            instrs, kind, value = SERVICE_CATALOG[k]
            f.write(f"{instrs}\t{kind}\t{value}\n")
    return path


def reference(run, seq, spans_path=None, parent=None):
    """`Driver::run` of every job of `seq`, in-process, without HTTP."""
    out_dir, summary = run.path("reference"), run.path("reference.json")
    os.makedirs(out_dir)
    cmd = [run.probe, "reference", "--specs", write_specs(run, seq), "--report-dir", out_dir,
           "--summary", summary, "--fidelity-instrs", str(FIDELITY_INSTRS)]
    if spans_path:
        cmd += ["--spans", spans_path, "--parent", "{span}"]
    code, _, _, _ = run.proc(cmd, "reference", parent, "reference")
    run.check(code == 0, f"reference exit code {code}")
    if code != 0:
        raise BenchError("reference failed")
    s = json.loads(read(summary))
    run.check_summary(s, "reference")
    bodies = {}
    for pos, (k, role) in enumerate(seq):
        if role == "first":
            bodies[k] = read(os.path.join(out_dir, f"{pos}.txt"))
    points = {}
    for row in s["specs"]:
        points[seq[row["job"]][0]] = row["points"] * row["instrs"]
    return s, bodies, points


def check_bodies(run, passes, bodies):
    for p in passes:
        for job in p["jobs"] + p["hits"]:
            run.check(job["body"] == bodies[job["spec"]],
                      f"job {job['pos']} body differs from Driver::run of its spec")


def service_mix(run):
    """A closed loop of CLIENTS clients against `--serve`: the documented
    service jobs and small sweeps and experiments below 200k
    instructions, each spec twice."""
    # Set-up: server start-ups alone, for a steady median of a few ms.
    starts = []
    for i in range(SERVER_STARTS):
        server = Server(run, f"start{i}")
        starts.append(server.setup_s)
        code, _ = server.stop()
        run.check(code == 0, f"start{i}: server exit code {code}")
    # A first pass warms the page cache and the host's caches for the
    # server binary; its bodies are checked, its times dropped.
    warmup = service_pass(run, job_sequences(run.rng, 1)[0], "warmup")
    if run.args.trace:
        return service_mix_traced(run, warmup)
    passes = [service_pass(run, seq, f"pass{i}")
              for i, seq in enumerate(job_sequences(run.rng, run.rounds(PASS_S)))]

    s, bodies, points = reference(run, [(k, "first") for k in range(len(SERVICE_CATALOG))])
    check_bodies(run, [warmup] + passes, bodies)
    walls = [p["wall"] for p in passes]
    jobs = [j for p in passes for j in p["jobs"]]
    work = sum(points[j["spec"]] for j in jobs)
    m = {
        # The mean, not the median: a pass's wall is how its 18 jobs
        # packed onto the two clients, which the seeded order decides.
        "wall_s": statistics.mean(walls),
        "setup_s": statistics.median(starts + [p["setup"] for p in passes]),
        "peak_rss_mb": max(p["rss"] for p in passes),
        "sim_mips": work / sum(walls) / 1e6,
        **fidelity_metrics(s["fidelity"]),
        "jobs_per_s": len(jobs) / sum(walls),
    }
    m.update(latency_metrics("job", [j["ms"] for j in jobs if j["role"] == "first"],
                             run.details))
    m.update(latency_metrics("replay", [j["ms"] for j in jobs if j["role"] != "first"],
                             run.details))
    run.details["pass_walls"] = [round(w, 4) for w in walls]
    run.details["overlaps_that_overlapped"] = sum(overlapped(p["jobs"]) for p in passes)
    return m


def overlapped(jobs):
    """How many "overlap" repeats were submitted before their first
    finished."""
    end = {j["spec"]: j["end_us"] for j in jobs if j["role"] == "first"}
    return sum(1 for j in jobs if j["role"] == "overlap" and j["start_us"] < end[j["spec"]])


def service_mix_traced(run, warmup):
    """The service layer from the client side of one HTTP pass; every
    other layer from the in-process reference of the same jobs, whose
    spans are the probe's own calls into the layers."""
    seq = job_sequences(run.rng, 1)[0]
    traced = service_pass(run, seq, "traced", hits=True)
    untraced = run_seconds(reference(run, seq)[0])
    spans_path = run.path("reference.spans")
    s, bodies, _ = reference(run, seq, spans_path, run.spans.new_id())
    check_bodies(run, [warmup, traced], bodies)

    m = layer_metrics(run, spans_path, s["run_start_us"], s["run_end_us"], s)
    jobs = traced["jobs"]
    driver_hits = [d["ms"] for d in s["driver"] if d["repeat"]]
    m["service.submit_ms"] = statistics.median(j["submit_ms"] for j in jobs)
    m["service.stream_ms"] = statistics.median(j["stream_ms"] for j in jobs)
    m["service.result_ms"] = statistics.median(j["result_ms"] for j in jobs)
    m["service.overhead_ms"] = (statistics.median(j["ms"] for j in traced["hits"])
                                - statistics.median(driver_hits))
    m["driver.run_s"] = sum(d["ms"] for d in s["driver"]) / 1e3
    m["trace.untraced_wall_s"] = untraced
    m["trace.overhead_s"] = run_seconds(s) - untraced
    m.update(work_metrics(s["work"]))
    return m


# --------------------------------------------------------- layer metrics

def load_spans(paths):
    spans = []
    for path in paths:
        with open(path) as f:
            spans += [json.loads(line) for line in f if line.strip()]
    return spans


def layer_metrics(run, span_files, start, end, summary, scale=1.0, process=False):
    """Per-layer metrics from the traced phase [start, end]: wall-share
    self time per layer (seconds), coverage, and the probe's counters.
    Only with `process` does a child's time outside its own spans count
    as a layer; otherwise the phase is the probe's own program work."""
    if isinstance(span_files, str):
        span_files = [span_files]
    spans = run.spans.items + load_spans(span_files)
    measured = [s for s in spans if process or s["layer"] != "process"]
    busy, share, by_name, coverage = layer_times(measured, start, end)
    trace_path = os.path.join(".bench_run", "traces",
                              f"{run.args.workload}-seed{run.args.seed}.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    write_chrome_trace(trace_path, spans)
    log(f"trace events: {trace_path}")
    c = summary["counters"]

    def per_instr(layer, instrs):
        return busy[layer] * 1e9 / instrs if instrs else 0.0

    m = {
        "analysis.preflight_s": share["analysis"] * scale,
        "trace.memo_s": share["trace.memo"] * scale,
        "process_s": share["process"] * scale,
        "core.lockstep_s": share["core.lockstep"] * scale,
        "core.lockstep_batches": c["lockstep_batches"],
        "core.lockstep_lanes_mean": c["lockstep_lanes"] / c["lockstep_batches"]
        if c["lockstep_batches"] else 0.0,
        "core.ns_per_lane_instr": per_instr("core.lockstep", c["lane_instrs"]),
        "core.engine_s": share["core.engine"] * scale,
        "core.engine_runs": c["engine_runs"],
        "core.ns_per_sim_instr": per_instr("core.engine", c["engine_instrs"]),
        "trace.record_s": share["trace.record"] * scale,
        "trace.record_instrs": c["record_instrs"],
        "trace.record_mb": summary["record_bytes"] / 2**20,
        "trace.overlay_s": share["trace.overlay"] * scale,
        "trace.overlay_mb": summary["overlay_bytes"] / 2**20,
        "synth.workload_s": share["synth"] * scale,
        "result_store.get_s": share["result_store.get"] * scale,
        "result_store.gets": c["store_gets"],
        "result_store.hit_ratio": c["store_hits"] / c["store_gets"] if c["store_gets"] else 0.0,
        "result_store.put_s": share["result_store.put"] * scale,
        "result_store.puts": c["store_puts"],
        "result_store.mb": 0.0,
        "experiments.points_requested": summary.get("points_requested", 0),
        "experiments.points_distinct": summary.get("points_distinct", 0),
        "experiments.render_s": share["experiments.render"] * scale,
        "experiments.table2_s": by_name.get("render:table2", 0.0) * scale,
        "service.submit_ms": 0.0,
        "service.stream_ms": 0.0,
        "service.result_ms": 0.0,
        "service.overhead_ms": 0.0,
        "driver.run_s": 0.0,
        "trace.coverage": coverage,
        "trace.traced_wall_s": (end - start) / 1e6,
        "trace.spans": len(spans),
    }
    return m


# ------------------------------------------------------------------ main

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "sim_mips": "Minstr/s",
    "ispi_mae": "ISPI", "rank_tau": "tau", "job_p50_ms": "ms", "job_tail_ms": "ms",
    "jobs_per_s": "1/s", "replay_p50_ms": "ms", "replay_tail_ms": "ms",
}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_mb", ".mb")):
        return "MiB"
    if name.endswith("_ratio") or name == "trace.coverage" or name == "failed_frac":
        return "ratio"
    if name.startswith("core.ns_per"):
        return "ns/instr"
    if name == "core.lockstep_lanes_mean":
        return "lanes"
    return "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default 1); 9001 is held out for confirming claims")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (os.path.isfile("Cargo.toml") and os.path.isfile(GOLDEN)):
        log("run from the root of a specfetch checkout (sources not found)")
        return 2
    try:
        repro, probe = build()
        run = Run(args, repro, probe)
        try:
            metrics = {"paper-cold": paper_cold, "service-mix": service_mix,
                       "warm-store": warm_store}[args.workload](run)
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
    except BenchError as e:
        log(str(e))
        return 1
    metrics["failed_frac"] = run.failed / run.attempted
    if args.trace:
        out = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(metrics.items())
               if k not in END_TO_END}
    else:
        out = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    print("details: " + json.dumps(run.details, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
