//! The Once4All campaign benchmark.
//!
//! ```text
//! o4a-perf --workload inproc|pipe_cached|fleet [--seed N] --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run measures about `S` seconds of campaigns and
//! prints the end-to-end metrics; with `--trace 1` it runs one untraced
//! and one traced campaign and prints the per-layer metrics. Every
//! campaign, traced or not, must match the digest of a reference
//! campaign run on an independent path. The last line of standard output
//! is the JSON result. The same binary also serves as the mock solver
//! (`o4a-perf mock ...`) and as a fleet worker (`o4a-perf worker ...`),
//! and runs the benchmark itself in a child process (`o4a-perf run ...`).

mod digest;
mod report;
mod stats;
mod sys;
mod trace;
mod workload;

use o4a_core::{CampaignConfig, FrontendValidator, Fuzzer, Once4AllConfig, Once4AllFuzzer};
use o4a_dist::{run_worker, DistReport, WorkerConfig};
use o4a_exec::FindingsStore;
use o4a_llm::{construct_generators, ConstructOptions, SimulatedLlm, Validator};
use o4a_solvers::SolverId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use report::{result_line, Metrics, END_TO_END, PER_LAYER};
use stats::{fast_spans, median, Dist};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace::{timed, Shared, Trace, TracedFuzzer, PROBE_US};
use workload::{campaign_seed, gate, run_untraced, Ctx, Gate, Workload};

/// The seed of a run that names none.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("o4a-perf: {msg}");
    eprintln!(
        "usage: o4a-perf --workload inproc|pipe_cached|fleet [--seed N] --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args(args: impl Iterator<Item = String>) -> Args {
    let mut args = args;
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed needs an integer")),
                )
            }
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload names no workload")),
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        traced: traced.unwrap_or_else(|| usage("--trace is 0 or 1")),
    }
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("mock") => mock(args.skip(1)),
        Some("worker") => worker(args.skip(1)),
        Some("run") => {
            let args = parse_args(args.skip(1));
            let dir = PathBuf::from(".perf_runs").join(std::process::id().to_string());
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create the run directory");
            let ctx = Ctx {
                dir,
                exe: self_command(),
            };
            let line = run(&args, &ctx);
            let _ = std::fs::remove_dir_all(&ctx.dir);
            let _ = std::fs::remove_dir(".perf_runs");
            match line {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("o4a-perf: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => relaunch(args),
    }
}

/// Runs the benchmark (the `run` role) in a child process and exits
/// with its status. `cargo run` replaces itself with this binary, and
/// `exec` keeps the peak resident set of every process cargo reaped
/// (the compiler, right after a build) as this process's children's;
/// a fresh child's count of its own children starts from zero.
fn relaunch(args: impl Iterator<Item = String>) -> ! {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let status = std::process::Command::new(exe)
        .arg("run")
        .args(args)
        .status()
        .unwrap_or_else(|e| {
            eprintln!("o4a-perf: cannot start the benchmark process: {e}");
            std::process::exit(1);
        });
    std::process::exit(status.code().unwrap_or(1));
}

/// This binary as a command word: relative to the working directory
/// when it lies below it, since the pipe backend splits commands on
/// whitespace.
fn self_command() -> String {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let cwd = std::env::current_dir().expect("a working directory");
    let exe = match exe.strip_prefix(&cwd) {
        Ok(rel) => Path::new(".").join(rel),
        Err(_) => exe,
    };
    exe.to_str()
        .filter(|s| !s.contains(char::is_whitespace))
        .expect("the binary path has no whitespace")
        .to_string()
}

/// The mock solver role (see `o4a_solvers::pipe::mock`).
fn mock(args: impl Iterator<Item = String>) {
    use o4a_solvers::pipe::mock::{config_from_args, serve, MockExit};
    let config = config_from_args(args).unwrap_or_else(|msg| usage(&msg));
    match serve(&config, std::io::stdin().lock(), std::io::stdout().lock()) {
        Ok(MockExit::Eof) => {}
        Ok(MockExit::Crash) | Err(_) => std::process::exit(3),
    }
}

/// The fleet worker role: `worker [--trace] --journal PATH --worker N`.
/// A traced worker writes its samples next to its journal on exit.
fn worker(args: impl Iterator<Item = String>) {
    let (mut journal, mut id, mut traced) = (None, None, false);
    let mut args = args;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--trace" => traced = true,
            "--journal" => journal = args.next().map(PathBuf::from),
            "--worker" => id = args.next().and_then(|v| v.parse().ok()),
            other => usage(&format!("unknown worker flag '{other}'")),
        }
    }
    let journal = journal.unwrap_or_else(|| usage("worker needs --journal"));
    let config = WorkerConfig::new(
        &journal,
        id.unwrap_or_else(|| usage("worker needs --worker")),
    );
    let shared: Shared = Rc::default();
    let plan = CampaignConfig::default();
    let factory = |_shard: u32| -> Box<dyn Fuzzer> {
        if traced {
            Box::new(TracedFuzzer::new(Rc::clone(&shared)).with_recheck(&plan))
        } else {
            Box::new(Once4AllFuzzer::with_defaults())
        }
    };
    let served = run_worker(
        factory,
        &config,
        std::io::stdin().lock(),
        std::io::stdout().lock(),
    );
    let written = if traced {
        shared.borrow().write(&journal.with_extension("trace"))
    } else {
        Ok(())
    };
    if let Err(e) = served.and(written) {
        eprintln!("o4a-perf worker: {e}");
        std::process::exit(1);
    }
}

/// Totals a run accumulates over its campaigns.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, gate: Gate) {
        self.attempted += gate.planned;
        self.failed += gate.failed;
    }
}

fn run(args: &Args, ctx: &Ctx) -> std::io::Result<String> {
    let mut tally = Tally::default();
    let setups = Arc::new(Mutex::new(Vec::new()));
    if args.traced {
        let metrics = traced_run(args, ctx, &setups, &mut tally)?;
        return Ok(result_line(
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            PER_LAYER,
            &metrics,
        ));
    }

    let w = args.workload;
    let configs: Vec<CampaignConfig> = (0..w.plans())
        .map(|i| w.plan(campaign_seed(args.seed, i as u64)))
        .collect();
    workload::warm_templates(w, ctx, &configs);
    let start = Instant::now();
    // (plan, spans, CPU spans, check) of every campaign; the results are
    // dropped, so that memory does not grow with the campaign count.
    let mut runs: Vec<(usize, Vec<f64>, Vec<f64>, workload::Check)> = Vec::new();
    loop {
        let i = runs.len();
        let plan = i % configs.len();
        let config = &configs[plan];
        // One standalone setup per campaign spreads the setup samples
        // over the whole run.
        standalone_setup(&setups, i as u64);
        let m = run_untraced(w, ctx, config, plan, i, &setups)?;
        eprintln!(
            "o4a-perf: campaign {i} (seed {}): {} cases, wall {:.3} s, cpu {:.3} s, {:.1} cases/s",
            config.seed,
            m.result.stats.cases,
            m.wall_s(),
            m.cpu_s(),
            m.result.stats.cases as f64 / m.case_s()
        );
        let check = workload::check(config, &m.result, m.fleet.as_ref());
        runs.push((plan, m.spans, m.cpu_spans, check));
        // Stop after the whole round of plans (one campaign of each)
        // that ends closest to the run's seconds.
        let elapsed = start.elapsed().as_secs_f64();
        let rounds = runs.len() / configs.len();
        if runs.len().is_multiple_of(configs.len())
            && elapsed * (1.0 + 0.5 / rounds as f64) > args.seconds
        {
            break;
        }
    }
    let peak_rss_mb = sys::peak_rss_mb();
    let expected = workload::references(w, ctx, &configs);
    for (plan, _, _, check) in &runs {
        tally.add(check.gate(expected[*plan]));
    }
    // Each span of each plan at the tenth percentile of its repeats: the
    // host's speed drifts by up to twofold over tens of seconds, and the
    // fast repeats of a span are the ones least slowed by it.
    let (mut cases, mut case_s, mut wall_s, mut cpu_s) = (0.0, 0.0, 0.0, 0.0);
    for (plan, config) in configs.iter().enumerate() {
        let repeats = runs.iter().filter(|r| r.0 == plan);
        let spans = fast_spans(repeats.clone().map(|r| r.1.as_slice()));
        cases += config.max_cases as f64;
        case_s += spans[1..].iter().sum::<f64>();
        wall_s += spans.iter().sum::<f64>();
        cpu_s += fast_spans(repeats.map(|r| r.2.as_slice()))
            .iter()
            .sum::<f64>();
    }
    let plans = configs.len() as f64;
    let setups = setups.lock().expect("setup samples poisoned").clone();
    let metrics: Metrics = [
        ("setup_s", median(&setups)),
        ("cases_per_s", cases / case_s),
        ("wall_s", wall_s / plans),
        ("cpu_s", cpu_s / plans),
        ("peak_rss_mb", peak_rss_mb),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    Ok(result_line(
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        &END_TO_END,
        &metrics,
    ))
}

fn last_setup(setups: &Arc<Mutex<Vec<f64>>>) -> f64 {
    let setups = setups.lock().expect("setup samples poisoned");
    *setups.last().expect("the campaign ran its fuzzer's setup")
}

/// Times one setup of the paper's fuzzer, outside any campaign.
fn standalone_setup(setups: &Arc<Mutex<Vec<f64>>>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, us) = timed(|| Once4AllFuzzer::with_defaults().setup(&mut rng));
    setups
        .lock()
        .expect("setup samples poisoned")
        .push(us / 1e6);
}

/// A frontend validator with every call timed.
struct TimedValidator {
    inner: FrontendValidator,
    calls: Rc<RefCell<(u64, f64)>>,
}

impl Validator for TimedValidator {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn validate(&mut self, script_text: &str) -> Result<(), String> {
        let (verdict, us) = timed(|| self.inner.validate(script_text));
        let mut calls = self.calls.borrow_mut();
        calls.0 += 1;
        calls.1 += us;
        verdict
    }
}

/// Generator construction as `Once4AllFuzzer::setup` performs it, with
/// the validators timed.
fn llm_probe(metrics: &mut Metrics) {
    let calls = Rc::new(RefCell::new((0u64, 0f64)));
    let mut validators: Vec<Box<dyn Validator>> = [SolverId::OxiZ, SolverId::Cervo]
        .into_iter()
        .map(|id| {
            Box::new(TimedValidator {
                inner: FrontendValidator::new(id),
                calls: Rc::clone(&calls),
            }) as Box<dyn Validator>
        })
        .collect();
    let mut llm = SimulatedLlm::new(Once4AllConfig::default().profile);
    let docs = o4a_llm::corpus::corpus();
    let (report, us) = timed(|| {
        construct_generators(
            &mut llm,
            &docs,
            &mut validators,
            ConstructOptions::default(),
        )
    });
    let (n, validate_us) = *calls.borrow();
    metrics.insert("llm.construct_s".into(), us / 1e6);
    metrics.insert("llm.requests".into(), report.total_requests as f64);
    metrics.insert("llm.validate_calls".into(), n as f64);
    metrics.insert("llm.validate_s".into(), validate_us / 1e6);
}

/// Inserts `.p50`, the fixed tail level (`.p99` or `.p90`), `.n` and,
/// when asked, `.max` of a timing distribution.
fn insert_dist(metrics: &mut Metrics, prefix: &str, d: &Dist, tail: u32, max: bool) {
    metrics.insert(format!("{prefix}.p50"), d.p50());
    metrics.insert(
        format!("{prefix}.p{tail}"),
        d.at(f64::from(tail)).unwrap_or(0.0),
    );
    metrics.insert(format!("{prefix}.n"), d.n() as f64);
    if max {
        metrics.insert(format!("{prefix}.max"), d.max());
    }
}

/// One untraced and one traced campaign of the run's first plan, both
/// gated, and the per-layer metrics of the traced one.
fn traced_run(
    args: &Args,
    ctx: &Ctx,
    setups: &Arc<Mutex<Vec<f64>>>,
    tally: &mut Tally,
) -> std::io::Result<Metrics> {
    let w = args.workload;
    let config = w.plan(campaign_seed(args.seed, 0));
    let plans = std::slice::from_ref(&config);
    workload::warm_templates(w, ctx, plans);
    let untraced = run_untraced(w, ctx, &config, 0, 0, setups)?;

    let shared: Shared = Rc::default();
    let (traced, fleet, traced_wall_s) = match w {
        Workload::Inproc => {
            let run = trace::inproc(&config, &ctx.path("traced.jsonl"), &shared)?;
            (run.result, None, run.wall_s)
        }
        Workload::PipeCached => {
            let cache = ctx.path("traced-cache");
            workload::copy_dir(&ctx.template(0), &cache)?;
            let command = ctx.mock_command(&config);
            let run = trace::piped(&config, &command, workload::PIPE_INFLIGHT, &cache, &shared)?;
            (run.result, None, run.wall_s)
        }
        Workload::Fleet => {
            let journals = ctx.path("traced-journals");
            let dist = workload::fleet_config(ctx, &journals, true);
            let (report, us) =
                timed(|| o4a_dist::run_distributed(&config, workload::FLEET_SHARDS, &dist));
            let report = report?;
            // Worker time adds up across the fleet's processes.
            let mut busy_s = 0.0;
            for w in &report.stats.per_worker {
                shared
                    .borrow_mut()
                    .absorb(Trace::read(&w.journal.with_extension("trace"))?);
                busy_s += w.wall.as_secs_f64();
            }
            let coordinator_s = us / 1e6;
            (report.result.clone(), Some((report, coordinator_s)), busy_s)
        }
    };
    let expected = workload::references(w, ctx, plans)[0];
    tally.add(gate(
        &config,
        &untraced.result,
        untraced.fleet.as_ref(),
        expected,
    ));
    tally.add(gate(
        &config,
        &traced,
        fleet.as_ref().map(|(r, _)| r),
        expected,
    ));

    let t = shared.borrow();
    for name in t.sampled() {
        let d = t.dist(name);
        let tail = d
            .tail()
            .map_or(String::new(), |(level, v)| format!(", p{level} {v:.1}"));
        eprintln!("o4a-perf: {name}: n {}, p50 {:.1}{tail}", d.n(), d.p50());
    }
    let mut m = Metrics::new();
    llm_probe(&mut m);
    let cases = traced.stats.cases as f64;
    m.insert("core.setup_s".into(), t.seconds("setup_us"));
    let generate = t.dist("core.generate_us");
    insert_dist(&mut m, "core.generate_us", &generate, 99, false);
    m.insert("core.generate_s".into(), t.seconds("core.generate_us"));
    m.insert(
        "core.case_bytes_mean".into(),
        t.count("core.case_bytes") / generate.n().max(1) as f64,
    );
    m.insert(
        "core.invalid_fill_rate".into(),
        t.count("core.invalid_fills_x_cases") / generate.n().max(1) as f64,
    );
    for solver in ["oxiz", "cervo"] {
        let analyze = format!("solvers.analyze_us.{solver}");
        insert_dist(&mut m, &analyze, &t.dist(&analyze), 99, false);
        m.insert(format!("solvers.analyze_s.{solver}"), t.seconds(&analyze));
        let check = format!("solvers.check_us.{solver}");
        insert_dist(&mut m, &check, &t.dist(&check), 99, true);
        m.insert(format!("solvers.check_s.{solver}"), t.seconds(&check));
        for counter in ["steps", "assignments"] {
            let name = format!("solvers.{counter}.{solver}");
            m.insert(name.clone(), t.count(&name));
        }
    }
    for outcome in ["sat", "unsat", "unknown", "error", "crash", "timeout"] {
        let name = format!("solvers.outcome.{outcome}");
        m.insert(name.clone(), t.count(&name));
    }
    for (name, tail) in [
        ("core.judge_us", 99),
        ("core.apply_us", 99),
        ("pipe.roundtrip_us", 99),
        ("cache.lookup_us", 99),
        ("cache.record_us", 99),
        ("store.append_us", 90),
    ] {
        insert_dist(&mut m, name, &t.dist(name), tail, false);
    }
    m.insert("core.judge_s".into(), t.seconds("core.judge_us"));
    m.insert("core.apply_s".into(), t.seconds("core.apply_us"));
    m.insert("core.snapshots".into(), traced.snapshots.len() as f64);
    m.insert("core.findings".into(), traced.findings.len() as f64);

    let s = &traced.stats;
    let on_pipe = w == Workload::PipeCached;
    let pipe_count = |n: u64| if on_pipe { n as f64 } else { 0.0 };
    m.insert(
        "pipe.processes_spawned".into(),
        pipe_count(s.processes_spawned),
    );
    m.insert("pipe.respawns".into(), pipe_count(s.process_respawns));
    m.insert("pipe.scopes_pushed".into(), pipe_count(s.scopes_pushed));
    m.insert("cache.open_s".into(), t.seconds("cache.open_us"));
    m.insert("cache.lookup_s".into(), t.seconds("cache.lookup_us"));
    m.insert("cache.record_s".into(), t.seconds("cache.record_us"));
    m.insert("cache.hits".into(), s.cache_hits as f64);
    m.insert("cache.misses".into(), s.cache_misses as f64);
    let lookups = (s.cache_hits + s.cache_misses) as f64;
    m.insert(
        "cache.hit_ratio".into(),
        if lookups > 0.0 {
            s.cache_hits as f64 / lookups
        } else {
            0.0
        },
    );
    m.insert("store.append_s".into(), t.seconds("store.append_us"));
    m.insert("store.appends".into(), t.dist("store.append_us").n() as f64);

    // The additive split: traced wall minus probes is the self times
    // plus everything else the engine did.
    let probe_s = t.count(PROBE_US) / 1e6;
    let other_s = traced_wall_s - probe_s - t.self_seconds();
    m.insert("bench.traced_wall_s".into(), traced_wall_s);
    m.insert("bench.probe_s".into(), probe_s);
    m.insert("exec.other_s".into(), other_s);
    if other_s < -0.01 * traced_wall_s {
        eprintln!(
            "o4a-perf: self times exceed the traced wall time by {:.3} s",
            -other_s
        );
        tally.failed = tally.attempted;
    }

    let setup_of = |wall: f64, setup: f64| cases / (wall - setup);
    let (untraced_rate, traced_rate) = match &fleet {
        Some((_, coordinator_s)) => (cases / untraced.wall_s(), cases / coordinator_s),
        None => (
            setup_of(untraced.wall_s(), last_setup(setups)),
            setup_of(traced_wall_s, t.seconds("setup_us")),
        ),
    };
    m.insert(
        "bench.trace_overhead_frac".into(),
        1.0 - traced_rate / untraced_rate,
    );
    dist_metrics(&mut m, &config, untraced.fleet.as_ref(), untraced.wall_s())?;
    m.insert(
        "bench.failed_frac".into(),
        tally.failed as f64 / tally.attempted as f64,
    );
    Ok(m)
}

/// The fleet's metrics, from the untraced fleet campaign (zeros on the
/// other workloads), and the journal merge timed as a probe.
fn dist_metrics(
    m: &mut Metrics,
    config: &CampaignConfig,
    report: Option<&DistReport>,
    wall_s: f64,
) -> std::io::Result<()> {
    let mut put = |name: &str, v: f64| {
        m.insert(format!("dist.{name}"), v);
    };
    let Some(report) = report else {
        for name in [
            "leases_granted",
            "leases_reissued",
            "worker_deaths",
            "workers_spawned",
            "worker_cases_per_s.min",
            "worker_cases_per_s.max",
            "tail_s",
            "merge_s",
        ] {
            put(name, 0.0);
        }
        return Ok(());
    };
    let s = &report.stats;
    put("leases_granted", s.leases_granted as f64);
    put("leases_reissued", s.leases_reissued as f64);
    put("worker_deaths", f64::from(s.worker_deaths));
    put("workers_spawned", f64::from(s.workers_spawned));
    let rates: Vec<f64> = s.per_worker.iter().map(|w| w.cases_per_sec()).collect();
    put(
        "worker_cases_per_s.min",
        rates.iter().copied().fold(f64::INFINITY, f64::min),
    );
    put(
        "worker_cases_per_s.max",
        rates.iter().copied().fold(0.0, f64::max),
    );
    let longest = s
        .per_worker
        .iter()
        .map(|w| w.wall.as_secs_f64())
        .fold(0.0, f64::max);
    put("tail_s", wall_s - longest);
    let journals: Vec<PathBuf> = s.per_worker.iter().map(|w| w.journal.clone()).collect();
    let (merged, us) =
        timed(|| FindingsStore::merge_from(config, workload::FLEET_SHARDS, &journals));
    merged?;
    put("merge_s", us / 1e6);
    Ok(())
}
