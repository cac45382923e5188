//! `perfbench`: the in-process half of the specfetch benchmark.
//!
//! `run.py` drives the workloads and times whole processes; this binary
//! runs the library work whose inside it needs to see. Three commands:
//!
//! ```text
//! perfbench cold      --instrs N --order ID,ID,.. --result-dir D --report F --summary F [--spans F --parent ID]
//!                     (also writes each experiment's own report as F.<id>)
//! perfbench replay    --instrs N --result-dir D --report F --summary F --spans F --parent ID
//! perfbench reference --specs F --report-dir D --summary F --fidelity-instrs N [--spans F --parent ID]
//! ```
//!
//! - `cold` is `specfetch-repro --experiment all --result-dir D` with
//!   the experiments in the given order. With `--spans` it first
//!   simulates each experiment's grid through explicit calls into the
//!   layers (synth, trace recording, overlay, config-lockstep or the
//!   engine, memo, result store), each inside a span, and then renders
//!   the experiment in the now memo-warm process.
//! - `replay` is the traced twin of a warm `specfetch-repro
//!   --experiment all --result-dir D`: it reads every grid point from
//!   the store through timed calls, then renders.
//! - `reference` runs each service job spec through `Driver::run`, the
//!   no-HTTP reference the service's result bodies must equal, and
//!   times every job's `Driver::run`, repeats included; traced, it
//!   decomposes cold specs into layer calls first.
//!
//! Each command writes the rendered stdout bytes, a JSON summary (work
//! counts, output checks, fidelity) and, when traced, its spans. `cold`
//! and `reference` also report the span-clock window of the program
//! work alone (`run_start_us`/`run_end_us`), so the checks that follow
//! it are neither timed nor traced.

mod spans;
mod work;

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use specfetch_core::{run_lockstep, FrontEnd, SimConfig, SimResult, Simulator};
use specfetch_experiments::result_store::{self, StoredOutcome};
use specfetch_experiments::{
    analysis, diag, journal, par_map, parse_sweep, registry, trace_cache, Driver, Format, JobSpec,
    RunOptions, Scenario, EXPERIMENT_IDS,
};
use specfetch_synth::suite::Benchmark;

use spans::Tracer;
use work::{fidelity, Work};

/// Parsed `--flag value` pairs.
struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(key.to_owned(), value.clone());
        }
        Ok(Flags(map))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
    }

    fn opt(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn num(&self, key: &str) -> Result<u64, String> {
        let v = self.get(key)?;
        v.parse().map_err(|_| format!("bad --{key} value {v:?}"))
    }
}

/// Counts taken at the layer calls of a traced run.
#[derive(Default)]
struct Counters {
    lockstep_batches: AtomicU64,
    lockstep_lanes: AtomicU64,
    lane_instrs: AtomicU64,
    engine_runs: AtomicU64,
    engine_instrs: AtomicU64,
    record_instrs: AtomicU64,
    store_gets: AtomicU64,
    store_hits: AtomicU64,
    store_puts: AtomicU64,
}

impl Counters {
    fn json(&self) -> String {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        format!(
            "{{\"lockstep_batches\":{},\"lockstep_lanes\":{},\"lane_instrs\":{},\
             \"engine_runs\":{},\"engine_instrs\":{},\"record_instrs\":{},\"store_gets\":{},\
             \"store_hits\":{},\"store_puts\":{}}}",
            get(&self.lockstep_batches),
            get(&self.lockstep_lanes),
            get(&self.lane_instrs),
            get(&self.engine_runs),
            get(&self.engine_instrs),
            get(&self.record_instrs),
            get(&self.store_gets),
            get(&self.store_hits),
            get(&self.store_puts),
        )
    }
}

/// What every layer call needs: the tracer, the run it serves, counters,
/// and which (benchmark, window) recordings this process already made.
struct Ctx {
    tracer: Tracer,
    counters: Counters,
    recorded: Mutex<HashSet<(&'static str, u64)>>,
    overlay_min: u64,
}

impl Ctx {
    fn new(traced: bool) -> Self {
        Ctx {
            tracer: Tracer::new(traced),
            counters: Counters::default(),
            recorded: Mutex::new(HashSet::new()),
            overlay_min: RunOptions::new().overlay_min_instrs,
        }
    }

    fn span<R>(
        &self,
        parent: &str,
        name: &str,
        layer: &'static str,
        run: &str,
        f: impl FnOnce(&str) -> R,
    ) -> R {
        self.tracer.span(parent, name, layer, run, f)
    }

    /// Records `b`'s path for `instrs` unless this process already has:
    /// the workload generator first (timed on its own, so the generator
    /// runs twice here), then the shared recording.
    fn record(&self, parent: &str, run: &str, b: &'static Benchmark, instrs: u64) {
        if !self.recorded.lock().expect("recorded set poisoned").insert((b.name, instrs)) {
            return;
        }
        self.span(parent, b.name, "synth", run, |_| {
            b.workload().unwrap_or_else(|e| panic!("generating {}: {e}", b.name))
        });
        let trace = self
            .span(parent, b.name, "trace.record", run, |_| trace_cache::shared_trace(b, instrs));
        self.counters.record_instrs.fetch_add(trace.len() as u64, Ordering::Relaxed);
    }
}

/// One benchmark's configurations still to simulate in this process.
struct Group {
    bench: &'static Benchmark,
    cfgs: Vec<SimConfig>,
}

type PointKey = (&'static str, u64, SimConfig);

/// Groups `scenario`'s grid points by benchmark, in first-appearance
/// order as the runner does, dropping points in `done` and marking the
/// rest done.
fn pending_groups(scenario: &Scenario, instrs: u64, done: &mut HashSet<PointKey>) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    for p in scenario.grid_points() {
        if !done.insert((p.benchmark.name, instrs, p.cfg)) {
            continue;
        }
        match groups.iter_mut().find(|g| std::ptr::eq(g.bench, p.benchmark)) {
            Some(g) => g.cfgs.push(p.cfg),
            None => groups.push(Group { bench: p.benchmark, cfgs: vec![p.cfg] }),
        }
    }
    groups
}

/// The grid an experiment selection evaluates (`None` for `table2`,
/// which characterises the recordings instead).
fn experiment_scenario(id: &str) -> Option<Scenario> {
    registry::find(id).and_then(|e| e.scenario).map(|s| s())
}

/// Simulates one group through explicit layer calls, as the runner
/// would: static preflight, recording, then one config-lockstep batch
/// over the overlay at windows of at least `overlay_min`, else one
/// engine run per configuration over the recording. Results go to the
/// memo and, with a store directory, to the store.
fn simulate_group(
    ctx: &Ctx,
    parent: &str,
    run: &str,
    g: &Group,
    instrs: u64,
    store: Option<&Path>,
) {
    let b = g.bench;
    ctx.span(parent, b.name, "analysis", run, |_| analysis::preflight(b))
        .unwrap_or_else(|e| panic!("preflight {}: {e}", b.name));
    ctx.record(parent, run, b, instrs);
    let results: Vec<SimResult> = if instrs >= ctx.overlay_min {
        let overlay = ctx.span(parent, b.name, "trace.overlay", run, |_| {
            trace_cache::predicted_trace(b, instrs)
        });
        let fronts: Vec<FrontEnd> = g
            .cfgs
            .iter()
            .map(|cfg| FrontEnd::build(*cfg).unwrap_or_else(|e| panic!("{}: {e}", b.name)))
            .collect();
        ctx.counters.lockstep_batches.fetch_add(1, Ordering::Relaxed);
        ctx.counters.lockstep_lanes.fetch_add(fronts.len() as u64, Ordering::Relaxed);
        ctx.counters.lane_instrs.fetch_add(fronts.len() as u64 * instrs, Ordering::Relaxed);
        ctx.span(parent, b.name, "core.lockstep", run, |_| run_lockstep(&overlay, fronts))
            .into_iter()
            .map(|lane| lane.unwrap_or_else(|_| panic!("a {} lane panicked", b.name)))
            .collect()
    } else {
        g.cfgs
            .iter()
            .map(|cfg| {
                ctx.counters.engine_runs.fetch_add(1, Ordering::Relaxed);
                ctx.counters.engine_instrs.fetch_add(instrs, Ordering::Relaxed);
                ctx.span(parent, b.name, "core.engine", run, |_| {
                    Simulator::new(*cfg).run(trace_cache::recorded_source(b, instrs))
                })
            })
            .collect()
    };
    for (cfg, r) in g.cfgs.iter().zip(results) {
        ctx.span(parent, b.name, "trace.memo", run, |_| {
            trace_cache::memoized_result(b, instrs, *cfg, || r.clone())
        });
        if let Some(dir) = store {
            ctx.counters.store_puts.fetch_add(1, Ordering::Relaxed);
            ctx.span(parent, b.name, "result_store.put", run, |_| {
                result_store::put_in(dir, b.name, instrs, cfg, &r)
            });
        }
    }
}

/// Fills the memo for one experiment or sweep grid through the layer
/// calls of [`simulate_group`], benchmark groups in parallel as the
/// runner schedules them; `table2` (no grid) only records.
fn warm_grid(
    ctx: &Ctx,
    parent: &str,
    run: &str,
    scenario: Option<Scenario>,
    instrs: u64,
    done: &mut HashSet<PointKey>,
    store: Option<&Path>,
) {
    match scenario {
        Some(s) => {
            let groups = pending_groups(&s, instrs, done);
            par_map(groups, true, |g| simulate_group(ctx, parent, run, &g, instrs, store));
        }
        None => {
            let benches: Vec<&'static Benchmark> = Benchmark::all().iter().collect();
            par_map(benches, true, |b| ctx.record(parent, run, b, instrs));
        }
    }
}

/// Runs one spec through the driver, returning the CLI's stdout bytes
/// and the number of failed cells and experiments.
fn drive(driver: &Driver, spec: &JobSpec) -> (String, usize) {
    let mut text = String::new();
    let outcome = driver.run(spec, &mut |report: &str| {
        text.push_str(report);
        text.push('\n');
    });
    (text, outcome.failed_cells + outcome.failed_experiments)
}

/// Every distinct grid point of the paper artifacts, and how many
/// points the experiments request in total.
fn paper_points(instrs: u64) -> (Vec<PointKey>, usize) {
    let mut done = HashSet::new();
    let mut distinct = Vec::new();
    let mut requested = 0;
    for id in EXPERIMENT_IDS {
        if let Some(s) = experiment_scenario(id) {
            for p in s.grid_points() {
                requested += 1;
                if done.insert((p.benchmark.name, instrs, p.cfg)) {
                    distinct.push((p.benchmark.name, instrs, p.cfg));
                }
            }
        }
    }
    (distinct, requested)
}

/// Sums the work of every paper grid point as the store holds it,
/// checking each result; points missing from the store count as failed.
fn check_store(dir: &Path, instrs: u64) -> (Work, usize, usize, usize) {
    let (points, requested) = paper_points(instrs);
    let mut work = Work::default();
    let mut missing = 0;
    for (bench, n, cfg) in &points {
        match result_store::get_in(dir, bench, *n, cfg) {
            Some(StoredOutcome::Completed(r)) => work.add(&r, *n),
            _ => missing += 1,
        }
    }
    (work, missing, requested, points.len())
}

/// Heap bytes of this process's recordings and overlays at `instrs`.
fn trace_bytes(ctx: &Ctx, instrs: u64) -> (usize, usize) {
    let recorded = ctx.recorded.lock().expect("recorded set poisoned");
    let mut rec = 0;
    let mut overlay = 0;
    for b in Benchmark::all() {
        if recorded.contains(&(b.name, instrs)) {
            rec += trace_cache::shared_trace(b, instrs).heap_bytes();
            if instrs >= ctx.overlay_min {
                overlay += trace_cache::predicted_trace(b, instrs).heap_bytes();
            }
        }
    }
    (rec, overlay)
}

/// Points the CLI's store and journal at `dir`, exactly as
/// `specfetch-repro --experiment all --result-dir <dir>` does.
fn open_store(dir: &Path, instrs: u64) -> Result<(), String> {
    result_store::set_dir(dir.to_path_buf()).map_err(|e| e.to_string())?;
    journal::activate(dir, journal::run_key("experiment:all", instrs), false)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

fn write_spans(ctx: &Ctx, flags: &Flags) -> Result<(), String> {
    match flags.opt("spans") {
        Some(path) => ctx.tracer.write_jsonl(path).map_err(|e| format!("writing {path}: {e}")),
        None => Ok(()),
    }
}

fn parse_order(list: &str) -> Result<Vec<&'static str>, String> {
    let order: Vec<&'static str> = list
        .split(',')
        .map(|id| {
            EXPERIMENT_IDS
                .iter()
                .copied()
                .find(|known| *known == id)
                .ok_or_else(|| format!("unknown paper experiment {id:?}"))
        })
        .collect::<Result<_, _>>()?;
    let mut sorted = order.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != EXPERIMENT_IDS.len() || order.len() != EXPERIMENT_IDS.len() {
        return Err("--order must list every paper experiment once".into());
    }
    Ok(order)
}

/// `cold`: the paper reproduction into a fresh store, experiments in
/// the given order.
fn cmd_cold(flags: &Flags) -> Result<(), String> {
    let instrs = flags.num("instrs")?;
    let order = parse_order(flags.get("order")?)?;
    let dir = PathBuf::from(flags.get("result-dir")?);
    let parent = flags.opt("parent").unwrap_or("");
    let ctx = Ctx::new(flags.opt("spans").is_some());
    diag::set_quiet(true);
    let run_start = ctx.tracer.now_us();
    open_store(&dir, instrs)?;
    let driver = Driver::new(RunOptions::new().with_instrs(instrs), Format::Plain);

    let mut done = HashSet::new();
    let mut reports: HashMap<&str, String> = HashMap::new();
    let mut failed_cells = 0;
    for id in &order {
        let (text, failed) = ctx.span(parent, &format!("experiment:{id}"), "", "cold", |eid| {
            if ctx.tracer.enabled() {
                let s = experiment_scenario(id);
                warm_grid(&ctx, eid, "cold", s, instrs, &mut done, Some(&dir));
            }
            ctx.span(eid, &format!("render:{id}"), "experiments.render", "cold", |_| {
                drive(&driver, &JobSpec::Experiment((*id).to_owned()))
            })
        });
        failed_cells += failed;
        reports.insert(id, text);
    }
    journal::flush();
    let run_end = ctx.tracer.now_us();

    let report = flags.get("report")?;
    let canonical: String = EXPERIMENT_IDS.iter().map(|id| reports[id].as_str()).collect();
    write(report, &canonical)?;
    for (id, text) in &reports {
        write(&format!("{report}.{id}"), text)?;
    }
    let (work, missing, requested, distinct) = check_store(&dir, instrs);
    let fid = fidelity(&RunOptions::new().with_instrs(instrs));
    let (rec_bytes, overlay_bytes) = trace_bytes(&ctx, instrs);
    let summary = format!(
        "{{\"failed_cells\":{failed_cells},\"missing\":{missing},\"points_requested\":{requested},\"points_distinct\":{distinct},\
         \"work\":{},\"fidelity\":{},\"counters\":{},\"record_bytes\":{rec_bytes},\
         \"overlay_bytes\":{overlay_bytes},\"run_start_us\":{run_start},\"run_end_us\":{run_end}}}",
        work.json(),
        fid.json(),
        ctx.counters.json(),
    );
    write(flags.get("summary")?, &summary)?;
    write_spans(&ctx, flags)
}

/// `replay`: a traced warm replay of a filled store, every grid point
/// read through a timed store call before the experiment renders.
fn cmd_replay(flags: &Flags) -> Result<(), String> {
    let instrs = flags.num("instrs")?;
    let dir = PathBuf::from(flags.get("result-dir")?);
    let parent = flags.get("parent")?;
    let ctx = Ctx::new(true);
    diag::set_quiet(true);
    open_store(&dir, instrs)?;
    let driver = Driver::new(RunOptions::new().with_instrs(instrs), Format::Plain);

    let mut done = HashSet::new();
    let mut text = String::new();
    let mut failed_cells = 0;
    for id in EXPERIMENT_IDS {
        let (report, failed) = ctx.span(parent, &format!("experiment:{id}"), "", "replay", |eid| {
            match experiment_scenario(id) {
                Some(s) => {
                    let groups = pending_groups(&s, instrs, &mut done);
                    par_map(groups, true, |g| read_group(&ctx, eid, &g, instrs, &dir));
                }
                None => warm_grid(&ctx, eid, "replay", None, instrs, &mut done, None),
            }
            ctx.span(eid, &format!("render:{id}"), "experiments.render", "replay", |_| {
                drive(&driver, &JobSpec::Experiment(id.to_owned()))
            })
        });
        failed_cells += failed;
        text.push_str(&report);
    }
    journal::flush();

    write(flags.get("report")?, &text)?;
    let (rec_bytes, _) = trace_bytes(&ctx, instrs);
    let summary = format!(
        "{{\"failed_cells\":{failed_cells},\"counters\":{},\
         \"record_bytes\":{rec_bytes},\"overlay_bytes\":0}}",
        ctx.counters.json(),
    );
    write(flags.get("summary")?, &summary)?;
    write_spans(&ctx, flags)
}

/// Reads one group's points from the store into the memo, as the
/// runner's warm path does (preflight, then one store read per point).
fn read_group(ctx: &Ctx, parent: &str, g: &Group, instrs: u64, dir: &Path) {
    let b = g.bench;
    ctx.span(parent, b.name, "analysis", "replay", |_| analysis::preflight(b))
        .unwrap_or_else(|e| panic!("preflight {}: {e}", b.name));
    for cfg in &g.cfgs {
        ctx.counters.store_gets.fetch_add(1, Ordering::Relaxed);
        let stored = ctx.span(parent, b.name, "result_store.get", "replay", |_| {
            result_store::get_in(dir, b.name, instrs, cfg)
        });
        if let Some(StoredOutcome::Completed(r)) = stored {
            ctx.counters.store_hits.fetch_add(1, Ordering::Relaxed);
            ctx.span(parent, b.name, "trace.memo", "replay", |_| {
                trace_cache::memoized_result(b, instrs, *cfg, || r)
            });
        }
    }
}

/// One service job as `run.py` submits it.
struct JobLine {
    instrs: u64,
    spec: JobSpec,
}

fn parse_specs(text: &str) -> Result<Vec<JobLine>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let mut parts = line.splitn(3, '\t');
            let (Some(n), Some(kind), Some(value)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("bad spec line {line:?}"));
            };
            let instrs = n.parse().map_err(|_| format!("bad window in {line:?}"))?;
            let spec = match kind {
                "experiment" => JobSpec::Experiment(value.to_owned()),
                "sweep" => JobSpec::Sweep(value.to_owned()),
                _ => return Err(format!("bad job kind in {line:?}")),
            };
            spec.validate().map_err(|e| e.to_string())?;
            Ok(JobLine { instrs, spec })
        })
        .collect()
}

/// The grids a job spec evaluates, one per experiment (`None` for
/// `table2`); `all` evaluates every paper experiment's.
fn job_scenarios(spec: &JobSpec) -> Vec<Option<Scenario>> {
    match spec {
        JobSpec::Experiment(id) if id == "all" => {
            EXPERIMENT_IDS.iter().map(|id| experiment_scenario(id)).collect()
        }
        JobSpec::Experiment(id) => vec![experiment_scenario(id)],
        JobSpec::Sweep(raw) => vec![parse_sweep(raw).ok()],
    }
}

/// `reference`: `Driver::run` of every job spec in sequence order. The
/// body of each distinct spec is written as `<report-dir>/<k>.txt`, `k`
/// its first position in the sequence.
fn cmd_reference(flags: &Flags) -> Result<(), String> {
    let specs_path = flags.get("specs")?;
    let specs_text =
        std::fs::read_to_string(specs_path).map_err(|e| format!("reading {specs_path}: {e}"))?;
    let jobs = parse_specs(&specs_text)?;
    let out_dir = PathBuf::from(flags.get("report-dir")?);
    let parent = flags.opt("parent").unwrap_or("");
    let ctx = Ctx::new(flags.opt("spans").is_some());
    diag::set_quiet(true);

    let mut first_seen: HashSet<(u64, String)> = HashSet::new();
    let mut done = HashSet::new();
    let run_start = ctx.tracer.now_us();
    let mut spec_rows = Vec::new();
    let mut driver_ms = Vec::new();
    let mut failed_cells = 0;
    for (k, job) in jobs.iter().enumerate() {
        let repeat = !first_seen.insert((job.instrs, job.spec.describe()));
        let run = format!("job-{k}");
        let driver = Driver::new(RunOptions::new().with_instrs(job.instrs), Format::Plain);
        let (body, failed) = ctx.span(parent, &format!("job:{k}"), "", &run, |jid| {
            if !repeat && ctx.tracer.enabled() {
                for s in job_scenarios(&job.spec) {
                    warm_grid(&ctx, jid, &run, s, job.instrs, &mut done, None);
                }
            }
            let t = Instant::now();
            let name = match &job.spec {
                JobSpec::Experiment(id) => format!("render:{id}"),
                JobSpec::Sweep(_) => "render:sweep".to_owned(),
            };
            let out =
                ctx.span(jid, &name, "experiments.render", &run, |_| drive(&driver, &job.spec));
            driver_ms.push(format!(
                "{{\"job\":{k},\"repeat\":{repeat},\"ms\":{:.3}}}",
                t.elapsed().as_secs_f64() * 1e3
            ));
            out
        });
        if !repeat {
            failed_cells += failed;
            write(&out_dir.join(format!("{k}.txt")).to_string_lossy(), &body)?;
            let points = job_scenarios(&job.spec)
                .into_iter()
                .flatten()
                .flat_map(|s| s.grid_points())
                .map(|p| (p.benchmark.name, p.cfg))
                .collect::<HashSet<_>>()
                .len();
            spec_rows
                .push(format!("{{\"job\":{k},\"points\":{points},\"instrs\":{}}}", job.instrs));
        }
    }

    let run_end = ctx.tracer.now_us();

    // Work and output checks over every distinct point of every job,
    // read back from the memo the jobs filled.
    let mut work = Work::default();
    let mut seen = HashSet::new();
    let mut requested = 0;
    for job in &jobs {
        for p in job_scenarios(&job.spec).into_iter().flatten().flat_map(|s| s.grid_points()) {
            requested += 1;
            if seen.insert((p.benchmark.name, job.instrs, p.cfg)) {
                let r = trace_cache::memoized_result(p.benchmark, job.instrs, p.cfg, || {
                    Simulator::new(p.cfg).run(trace_cache::recorded_source(p.benchmark, job.instrs))
                });
                work.add(&r, job.instrs);
            }
        }
    }
    let fid = fidelity(&RunOptions::new().with_instrs(flags.num("fidelity-instrs")?)).json();
    let mut rec_bytes = 0;
    let mut overlay_bytes = 0;
    let windows: HashSet<u64> = jobs.iter().map(|j| j.instrs).collect();
    for n in windows {
        let (r, o) = trace_bytes(&ctx, n);
        rec_bytes += r;
        overlay_bytes += o;
    }
    let summary = format!(
        "{{\"specs\":[{}],\"driver\":[{}],\"failed_cells\":{failed_cells},\
         \"points_requested\":{requested},\"points_distinct\":{},\"work\":{},\"fidelity\":{fid},\
         \"counters\":{},\"record_bytes\":{rec_bytes},\"overlay_bytes\":{overlay_bytes},\
         \"run_start_us\":{run_start},\"run_end_us\":{run_end}}}",
        spec_rows.join(","),
        driver_ms.join(","),
        seen.len(),
        work.json(),
        ctx.counters.json(),
    );
    write(flags.get("summary")?, &summary)?;
    write_spans(&ctx, flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => Flags::parse(rest).and_then(|flags| match cmd.as_str() {
            "cold" => cmd_cold(&flags),
            "replay" => cmd_replay(&flags),
            "reference" => cmd_reference(&flags),
            other => Err(format!("unknown command {other:?}")),
        }),
        None => Err("usage: perfbench cold|replay|reference --flag value ...".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
