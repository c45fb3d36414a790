//! The traced run: per-layer timings taken from outside the program.
//!
//! Nothing inside the workspace crates is instrumented. The traced
//! drivers below call each crate's public functions themselves and time
//! the calls: they wrap the `Fuzzer`, `FindingSink` and `VerdictCache`
//! traits and drive `CampaignStepper` by hand, mirroring the engine
//! loops (`o4a_exec::run_shard` and `run_shard_piped`) step for step, so
//! a traced campaign must reach the same digest as an untraced one.
//!
//! Two kinds of sample are kept apart. A *self time* is work the
//! campaign does anyway (setup, generate, solver check, apply, journal
//! append, cache lookup and record); the self times plus `exec.other_s`
//! add up to the traced wall time. A *probe* repeats a call the engine
//! makes internally (frontend analyze, judge) so it can be timed alone;
//! probe time is taken out of the traced wall time before the split.

use crate::stats::Dist;
use o4a_cache::{CacheSession, CacheStore};
use o4a_core::{
    judge, CampaignConfig, CampaignResult, CampaignStepper, CaseExecution, Finding, Fuzzer,
    Once4AllFuzzer, SolverRun, StepOutcome, TestCase,
};
use o4a_exec::{FindingSink, FindingsStore, StoreSession};
use o4a_executor::{FdReactor, InFlightPool, Sequencer};
use o4a_solvers::coverage::universe;
use o4a_solvers::{
    solver_with_config, AsyncSmtSolver, CacheKey, CachedReply, CoverageMap, Frontend, Outcome,
    PipeCommand, PipeSolver, SmtSolver, SolverId, SolverMode, SolverResponse, Universe,
    VerdictCache,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

/// Sample names whose sums are self times in the additive split.
const SELF_TIMES: [&str; 8] = [
    "setup_us",
    "core.generate_us",
    "solvers.check_us.oxiz",
    "solvers.check_us.cervo",
    "core.apply_us",
    "store.append_us",
    "cache.lookup_us",
    "cache.record_us",
];

/// Probe time accumulated by a traced run, in microseconds.
pub const PROBE_US: &str = "bench.probe_us";

/// Per-layer samples (microseconds) and counts of one traced run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    samples: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<String, f64>,
}

impl Trace {
    /// Records one timing sample, in microseconds.
    pub fn sample(&mut self, name: &str, micros: f64) {
        match self.samples.get_mut(name) {
            Some(v) => v.push(micros),
            None => {
                self.samples.insert(name.to_string(), vec![micros]);
            }
        }
    }

    /// Adds `n` to a count.
    pub fn add(&mut self, name: &str, n: f64) {
        *self.counts.entry(name.to_string()).or_default() += n;
    }

    /// The samples under `name`.
    pub fn dist(&self, name: &str) -> Dist {
        Dist::new(self.samples.get(name).cloned().unwrap_or_default())
    }

    /// The names of every sampled timing.
    pub fn sampled(&self) -> impl Iterator<Item = &str> {
        self.samples.keys().map(String::as_str)
    }

    /// The sum of the samples under `name`, in seconds.
    pub fn seconds(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>())
            / 1e6
    }

    /// A count (0 when never added to).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// The sum of every self time, in seconds.
    pub fn self_seconds(&self) -> f64 {
        SELF_TIMES.iter().map(|name| self.seconds(name)).sum()
    }

    /// Adds another trace's samples and counts to this one.
    pub fn absorb(&mut self, other: Trace) {
        for (name, v) in other.samples {
            self.samples.entry(name).or_default().extend(v);
        }
        for (name, n) in other.counts {
            self.add(&name, n);
        }
    }

    /// Writes the trace as text: `s <name> <µs>...` and `c <name> <n>`
    /// lines.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut text = String::new();
        for (name, v) in &self.samples {
            text.push_str("s ");
            text.push_str(name);
            for x in v {
                text.push_str(&format!(" {x:?}"));
            }
            text.push('\n');
        }
        for (name, n) in &self.counts {
            text.push_str(&format!("c {name} {n:?}\n"));
        }
        std::fs::write(path, text)
    }

    /// Reads a trace written by [`Trace::write`].
    pub fn read(path: &Path) -> io::Result<Trace> {
        let bad = |line: &str| io::Error::new(io::ErrorKind::InvalidData, line.to_string());
        let mut trace = Trace::default();
        for line in std::fs::read_to_string(path)?.lines() {
            let mut words = line.split(' ');
            let (Some(kind), Some(name)) = (words.next(), words.next()) else {
                return Err(bad(line));
            };
            let values = words
                .map(|w| w.parse::<f64>().map_err(|_| bad(line)))
                .collect::<io::Result<Vec<f64>>>()?;
            match (kind, values.as_slice()) {
                ("s", _) => trace
                    .samples
                    .entry(name.to_string())
                    .or_default()
                    .extend(values),
                ("c", [n]) => trace.add(name, *n),
                _ => return Err(bad(line)),
            }
        }
        Ok(trace)
    }
}

/// A trace shared by the wrappers of one single-threaded traced run.
pub type Shared = Rc<RefCell<Trace>>;

/// Runs `f`, returning its value and how long it took in microseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e6)
}

fn outcome_name(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Sat => "sat",
        Outcome::Unsat => "unsat",
        Outcome::Unknown => "unknown",
        Outcome::ParseError(_) => "error",
        Outcome::Crash(_) => "crash",
        Outcome::Timeout => "timeout",
    }
}

/// One timed `SmtSolver::check`, with its search counters.
fn check(solver: &mut dyn SmtSolver, text: &str, trace: &mut Trace) -> SolverResponse {
    let name = solver.id().name();
    let (response, us) = timed(|| solver.check(text));
    trace.sample(&format!("solvers.check_us.{name}"), us);
    trace.add(
        &format!("solvers.steps.{name}"),
        response.stats.steps as f64,
    );
    trace.add(
        &format!("solvers.assignments.{name}"),
        response.stats.assignments_tried as f64,
    );
    trace.add(
        &format!("solvers.outcome.{}", outcome_name(&response.outcome)),
        1.0,
    );
    response
}

/// The in-process solver bank of a plan.
fn bank(config: &CampaignConfig) -> Vec<Box<dyn SmtSolver>> {
    config
        .solvers
        .iter()
        .map(|&(id, commit)| solver_with_config(id, commit, config.engine.clone()))
        .collect()
}

/// Probe calls: each frontend's `analyze` and the oracle's `judge` on a
/// case, timed alone.
struct Probe {
    frontends: Vec<(SolverId, Frontend, Universe)>,
}

impl Probe {
    /// Probes for the solvers of `config`.
    fn new(config: &CampaignConfig) -> Probe {
        Probe {
            frontends: config
                .solvers
                .iter()
                .map(|&(id, _)| (id, Frontend::new(id), universe(id)))
                .collect(),
        }
    }

    /// Times every frontend's `analyze` of `text`.
    fn analyze(&self, text: &str, trace: &mut Trace) {
        for (id, frontend, universe) in &self.frontends {
            let (_, us) = timed(|| frontend.analyze(text, universe, &mut CoverageMap::new()));
            trace.sample(&format!("solvers.analyze_us.{}", id.name()), us);
            trace.add(PROBE_US, us);
        }
    }

    /// Times the oracle's verdict on one executed case.
    fn judge(&self, text: &str, runs: &[SolverRun], trace: &mut Trace) {
        let (_, us) = timed(|| {
            let responses: Vec<_> = runs
                .iter()
                .map(|run| (run.solver, run.response.clone()))
                .collect();
            judge(text, &responses)
        });
        trace.sample("core.judge_us", us);
        trace.add(PROBE_US, us);
    }
}

/// The paper's fuzzer with `setup` and `next_case` timed.
///
/// With a probe bank (the fleet's workers, where the engine checks each
/// case inside the lease runner) every case is also checked on a private
/// solver bank: that check stands in for the engine's own as the solver
/// layer's self time, and costs probe time like the other probes.
pub struct TracedFuzzer {
    inner: Once4AllFuzzer,
    trace: Shared,
    recheck: Option<(Probe, Vec<Box<dyn SmtSolver>>)>,
    generated: u64,
}

impl TracedFuzzer {
    /// Wraps a default fuzzer recording into `trace`.
    pub fn new(trace: Shared) -> TracedFuzzer {
        TracedFuzzer {
            inner: Once4AllFuzzer::with_defaults(),
            trace,
            recheck: None,
            generated: 0,
        }
    }

    /// Also probes every case against the solvers of `config`.
    pub fn with_recheck(mut self, config: &CampaignConfig) -> TracedFuzzer {
        self.recheck = Some((Probe::new(config), bank(config)));
        self
    }
}

impl Fuzzer for TracedFuzzer {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn setup(&mut self, rng: &mut StdRng) -> u64 {
        let (cost, us) = timed(|| self.inner.setup(rng));
        self.trace.borrow_mut().sample("setup_us", us);
        cost
    }

    fn next_case(&mut self, rng: &mut StdRng) -> TestCase {
        let (case, us) = timed(|| self.inner.next_case(rng));
        self.generated += 1;
        let mut trace = self.trace.borrow_mut();
        trace.sample("core.generate_us", us);
        trace.add("core.case_bytes", case.text.len() as f64);
        if let Some((probe, solvers)) = &mut self.recheck {
            let runs: Vec<SolverRun> = solvers
                .iter_mut()
                .map(|solver| {
                    let start = Instant::now();
                    let response = check(solver.as_mut(), &case.text, &mut trace);
                    trace.add(PROBE_US, start.elapsed().as_secs_f64() * 1e6);
                    SolverRun {
                        solver: solver.id(),
                        response,
                        coverage: CoverageMap::new(),
                    }
                })
                .collect();
            probe.analyze(&case.text, &mut trace);
            probe.judge(&case.text, &runs, &mut trace);
        }
        case
    }
}

impl Drop for TracedFuzzer {
    fn drop(&mut self) {
        // Weighted by cases, so leases of different length average right.
        let mut trace = self.trace.borrow_mut();
        trace.add(
            "core.invalid_fills_x_cases",
            self.inner.invalid_fill_rate() * self.generated as f64,
        );
    }
}

/// A findings journal with every append timed.
struct TimedSink {
    inner: StoreSession,
    appends: Mutex<Vec<f64>>,
}

impl TimedSink {
    fn time(&self, append: impl FnOnce()) {
        let (_, us) = timed(append);
        self.appends
            .lock()
            .expect("append samples poisoned")
            .push(us);
    }
}

impl FindingSink for TimedSink {
    fn on_finding(&self, shard: u32, finding: &Finding) {
        self.time(|| self.inner.on_finding(shard, finding));
    }

    fn on_shard_complete(&self, shard: u32, result: &CampaignResult) {
        self.time(|| self.inner.on_shard_complete(shard, result));
    }
}

/// A verdict cache with every lookup and record timed. Remembers the
/// scripts that missed, for the round-trip probe.
struct TimedCache {
    inner: CacheSession,
    trace: Shared,
    missed: RefCell<Vec<(String, String)>>,
}

impl VerdictCache for TimedCache {
    fn lookup(&self, key: &CacheKey) -> Option<CachedReply> {
        let (reply, us) = timed(|| self.inner.lookup(key));
        self.trace.borrow_mut().sample("cache.lookup_us", us);
        reply
    }

    fn record(&self, key: &CacheKey, reply: &CachedReply) {
        let (_, us) = timed(|| self.inner.record(key, reply));
        self.trace.borrow_mut().sample("cache.record_us", us);
        self.missed
            .borrow_mut()
            .push((key.solver.clone(), key.script.clone()));
    }
}

/// A traced campaign: its result and its wall time, probes included.
pub struct TracedRun {
    /// The campaign result.
    pub result: CampaignResult,
    /// Wall time of the whole campaign, setup and probes included.
    pub wall_s: f64,
}

/// The `inproc` campaign driven by hand: `run_shard`'s loop with the
/// stepper's solver checks made here, journaled through a timed
/// `FindingsStore` session.
pub fn inproc(config: &CampaignConfig, journal: &Path, trace: &Shared) -> io::Result<TracedRun> {
    let start = Instant::now();
    let (session, _) = FindingsStore::new(journal).resume_or_create(config, 1)?;
    let sink = TimedSink {
        inner: session,
        appends: Mutex::new(Vec::new()),
    };
    let probe = Probe::new(config);
    let mut solvers = bank(config);
    let mut fuzzer = TracedFuzzer::new(Rc::clone(trace));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut stepper = CampaignStepper::apply_only(config);
    stepper.charge_setup(fuzzer.setup(&mut rng));
    while !stepper.is_exhausted() {
        let case = fuzzer.next_case(&mut rng);
        let mut t = trace.borrow_mut();
        probe.analyze(&case.text, &mut t);
        let runs: Vec<SolverRun> = solvers
            .iter_mut()
            .map(|solver| {
                solver.reset_coverage();
                let response = check(solver.as_mut(), &case.text, &mut t);
                SolverRun {
                    solver: solver.id(),
                    response,
                    coverage: solver.coverage().clone(),
                }
            })
            .collect();
        probe.judge(&case.text, &runs, &mut t);
        let (outcome, us) = timed(|| stepper.apply_case(CaseExecution { case, runs }));
        t.sample("core.apply_us", us);
        drop(t);
        if let StepOutcome::Ran {
            recorded_finding: true,
        } = outcome
        {
            let finding = stepper.findings().last().expect("finding just recorded");
            sink.on_finding(0, finding);
        }
    }
    let result = stepper.finish(fuzzer.name());
    sink.on_shard_complete(0, &result);
    drop(fuzzer);
    let wall_s = start.elapsed().as_secs_f64();
    let mut t = trace.borrow_mut();
    for us in sink.appends.into_inner().expect("append samples poisoned") {
        t.sample("store.append_us", us);
    }
    Ok(TracedRun { result, wall_s })
}

/// One case's executions on every lane, awaited in campaign order — the
/// future `run_shard_piped` keeps in flight per case.
async fn execute(lanes: &[&dyn AsyncSmtSolver], case: TestCase) -> CaseExecution {
    let mut runs = Vec::with_capacity(lanes.len());
    for lane in lanes {
        let check = lane.check_async(case.text.clone()).await;
        runs.push(SolverRun {
            solver: lane.id(),
            response: check.response,
            coverage: check.coverage,
        });
    }
    CaseExecution { case, runs }
}

/// The `pipe_cached` campaign driven by hand: `run_shard_piped`'s
/// overlapped loop (K in flight, session lanes, one reactor) over a timed
/// verdict cache. After the campaign, every script that missed is sent
/// once more to a fresh K = 1 session lane without a cache, timing the
/// bare pipe round trip.
pub fn piped(
    config: &CampaignConfig,
    command: &str,
    inflight: usize,
    cache_dir: &Path,
    trace: &Shared,
) -> io::Result<TracedRun> {
    let start = Instant::now();
    let command = PipeCommand::parse(command).expect("mock command is not empty");
    let (session, open_us) = timed(|| CacheStore::new(cache_dir).open_shard(0));
    trace.borrow_mut().sample("cache.open_us", open_us);
    let cache = Rc::new(TimedCache {
        inner: session?,
        trace: Rc::clone(trace),
        missed: RefCell::new(Vec::new()),
    });
    let reactor = Rc::new(FdReactor::new());
    let lanes: Vec<PipeSolver> = config
        .solvers
        .iter()
        .enumerate()
        .map(|(lane, &(id, commit))| {
            PipeSolver::new(command.for_lane(lane), id, commit, Rc::clone(&reactor))
                .with_mode(SolverMode::Session)
                .with_cache(Rc::clone(&cache) as Rc<dyn VerdictCache>)
        })
        .collect();
    let refs: Vec<&dyn AsyncSmtSolver> = lanes.iter().map(|l| l as &dyn AsyncSmtSolver).collect();

    let mut fuzzer = TracedFuzzer::new(Rc::clone(trace));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut stepper = CampaignStepper::apply_only(config);
    stepper.charge_setup(fuzzer.setup(&mut rng));
    let mut pool: InFlightPool<CaseExecution> = InFlightPool::new(inflight);
    let mut sequencer: Sequencer<CaseExecution> = Sequencer::new();
    let mut next_case = 0u64;
    loop {
        while pool.len() + sequencer.held() < inflight && !stepper.is_exhausted() {
            let case = fuzzer.next_case(&mut rng);
            pool.submit(next_case, execute(&refs, case));
            next_case += 1;
        }
        if pool.is_empty() {
            break;
        }
        let done = pool.wait_any_with(|| {
            reactor
                .poll_io(None)
                .expect("fd reactor poll(2) failed while queries were in flight");
        });
        for (index, execution) in done {
            sequencer.push(index, execution);
        }
        while let Some((_, execution)) = sequencer.pop() {
            let (_, us) = timed(|| stepper.apply_case(execution));
            trace.borrow_mut().sample("core.apply_us", us);
        }
    }
    drop(pool);
    let mut result = stepper.finish(fuzzer.name());
    drop(fuzzer);
    for lane in &lanes {
        result.stats.processes_spawned += lane.processes_spawned();
        result.stats.process_respawns += lane.respawns();
        result.stats.scopes_pushed += lane.scopes_pushed();
        result.stats.cache_hits += lane.cache_hits();
        result.stats.cache_misses += lane.cache_misses();
        result.stats.prefix_reuses += lane.prefix_reuses();
    }
    drop(refs);
    drop(lanes);
    let wall_s = start.elapsed().as_secs_f64();

    let mut probes: BTreeMap<String, PipeSolver> = config
        .solvers
        .iter()
        .enumerate()
        .map(|(lane, &(id, commit))| {
            let solver = PipeSolver::standalone(command.for_lane(lane), id, commit)
                .with_mode(SolverMode::Session);
            (id.name().to_string(), solver)
        })
        .collect();
    for (solver, script) in cache.missed.take() {
        let lane = probes
            .get_mut(&solver)
            .expect("missed query of a known lane");
        let (_, us) = timed(|| SmtSolver::check(lane, &script));
        trace.borrow_mut().sample("pipe.roundtrip_us", us);
    }
    Ok(TracedRun { result, wall_s })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_trace_files_round_trip_and_absorb() {
        let mut trace = Trace::default();
        trace.sample("core.generate_us", 12.5);
        trace.sample("core.generate_us", 0.125);
        trace.add("core.case_bytes", 300.0);
        let path = std::env::temp_dir().join(format!("o4a-perf-trace-{}", std::process::id()));
        trace.write(&path).expect("write trace");
        let read = Trace::read(&path).expect("read trace");
        std::fs::remove_file(&path).expect("remove trace");

        let mut both = trace.clone();
        both.absorb(read);
        assert_eq!(both.dist("core.generate_us").n(), 4);
        assert_eq!(both.count("core.case_bytes"), 600.0);
        assert_eq!(both.seconds("core.generate_us"), 25.25 / 1e6);
    }

    #[test]
    fn malformed_trace_lines_are_refused() {
        let path = std::env::temp_dir().join(format!("o4a-perf-bad-{}", std::process::id()));
        for text in ["c only_name\n", "s name x\n", "q name 1\n", "c name 1 2\n"] {
            std::fs::write(&path, text).expect("write");
            assert!(Trace::read(&path).is_err(), "{text:?}");
        }
        std::fs::remove_file(&path).expect("remove");
    }
}
