//! The three workloads: their plans, their measured campaigns, their
//! reference campaigns and the correctness gate.
//!
//! Every workload is one closed-loop campaign: the fuzzer generates the
//! next case only when a slot frees. Every plan is case-bounded (the case
//! cap binds, the virtual budget does not), which the gate checks.

use crate::digest::digest;
use crate::sys::{children_cpu_seconds, self_cpu_seconds};
use crate::trace::timed;
use o4a_core::{run_campaign, CampaignConfig, CampaignResult, Fuzzer, Once4AllFuzzer, TestCase};
use o4a_dist::{run_distributed, DistConfig, DistReport};
use o4a_exec::{
    parallel_map, run_campaign_resumable, run_campaign_sharded, run_shard_piped, ExecConfig,
    FindingsStore, Parallelism, PipeBackend,
};
use o4a_solvers::SolverMode;
use rand::rngs::StdRng;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// In-process OxiZ + Cervo, one serial shard, findings journaled.
    Inproc,
    /// The mock solver over pipes in session mode, K in flight, with a
    /// verdict cache warm for all but the plan's last cases.
    PipeCached,
    /// A two-process fleet of distributed workers.
    Fleet,
}

/// Cases per `inproc` campaign: the paper's 24 virtual hours at time
/// scale 3000, capped below what the budget affords on every seed.
pub const INPROC_CASES: usize = 1_000;
/// Distinct `inproc` plans per run.
pub const INPROC_PLANS: usize = 6;
/// Cases per `pipe_cached` campaign.
pub const PIPE_CASES: usize = 3_000;
/// The last cases of a `pipe_cached` plan, which miss the warm cache:
/// 1000 fsync'd cache writes per campaign, enough for a p99. A larger
/// share makes the wall time mostly the disk's fsync latency.
pub const PIPE_MISSED_CASES: usize = 500;
/// In-flight queries per `pipe_cached` lane.
pub const PIPE_INFLIGHT: usize = 4;
/// Cases per `fleet` campaign.
pub const FLEET_CASES: usize = 1_000;
/// Distinct `fleet` plans per run.
pub const FLEET_PLANS: usize = 3;
/// Shards of the `fleet` plan: four leases per worker, short enough
/// that the workers finish close together.
pub const FLEET_SHARDS: u32 = 8;
/// Worker processes of the `fleet`.
pub const FLEET_WORKERS: u32 = 2;

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "inproc" => Some(Workload::Inproc),
            "pipe_cached" => Some(Workload::PipeCached),
            "fleet" => Some(Workload::Fleet),
            _ => None,
        }
    }

    /// The campaign plan for one campaign seed.
    pub fn plan(self, seed: u64) -> CampaignConfig {
        let max_cases = match self {
            Workload::Inproc => INPROC_CASES,
            Workload::PipeCached => PIPE_CASES,
            Workload::Fleet => FLEET_CASES,
        };
        CampaignConfig {
            seed,
            max_cases,
            ..CampaignConfig::default()
        }
    }

    /// Distinct plans a run measures; its campaigns cycle through them
    /// until the run's seconds are spent. `inproc` and `fleet` draw
    /// several plans, since their solver time depends on the generated
    /// cases. `pipe_cached` repeats one plan: the mock answers
    /// by hashing, so its work per case hardly depends on the plan, and
    /// one reference and one cache template serve every campaign.
    pub fn plans(self) -> usize {
        match self {
            Workload::Inproc => INPROC_PLANS,
            Workload::PipeCached => 1,
            Workload::Fleet => FLEET_PLANS,
        }
    }
}

/// The seed of campaign `index` of a run seeded with `seed`.
pub fn campaign_seed(seed: u64, index: u64) -> u64 {
    let mut x = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Where a run keeps its files and how it starts its helper processes.
pub struct Ctx {
    /// A fresh directory inside the checkout, removed after the run.
    pub dir: PathBuf,
    /// This binary, as the mock solver and the fleet worker run it.
    pub exe: String,
}

impl Ctx {
    /// The mock solver command line for a plan, `{lane}` left for the
    /// pipe backend to fill.
    pub fn mock_command(&self, config: &CampaignConfig) -> String {
        format!("{} mock --seed {} --lane {{lane}}", self.exe, config.seed)
    }

    /// A path inside the run directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// The warm verdict-cache template of plan `index`.
    pub fn template(&self, index: usize) -> PathBuf {
        self.path(&format!("p{index}-template"))
    }
}

/// Cases per timed window of an `inproc` or `pipe_cached` campaign.
pub const WINDOW_CASES: usize = 100;

/// The instants, with this process's CPU seconds, at which a campaign
/// asked for case 0, `WINDOW_CASES`, `2 * WINDOW_CASES`, ...
pub type Marks = Arc<Mutex<Vec<(Instant, f64)>>>;

/// The paper's fuzzer with the wall time of each `setup` recorded, and
/// the instant of every [`WINDOW_CASES`]th `next_case` call.
pub struct SetupTimed {
    inner: Once4AllFuzzer,
    setups: Arc<Mutex<Vec<f64>>>,
    marks: Marks,
    calls: usize,
}

impl SetupTimed {
    /// A default fuzzer recording its setup seconds into `setups` and
    /// its window marks into `marks`.
    pub fn new(setups: &Arc<Mutex<Vec<f64>>>, marks: &Marks) -> SetupTimed {
        SetupTimed {
            inner: Once4AllFuzzer::with_defaults(),
            setups: Arc::clone(setups),
            marks: Arc::clone(marks),
            calls: 0,
        }
    }
}

impl Fuzzer for SetupTimed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn setup(&mut self, rng: &mut StdRng) -> u64 {
        let (cost, us) = timed(|| self.inner.setup(rng));
        self.setups
            .lock()
            .expect("setup samples poisoned")
            .push(us / 1e6);
        cost
    }

    fn next_case(&mut self, rng: &mut StdRng) -> TestCase {
        if self.calls.is_multiple_of(WINDOW_CASES) {
            self.marks
                .lock()
                .expect("window marks poisoned")
                .push((Instant::now(), self_cpu_seconds()));
        }
        self.calls += 1;
        self.inner.next_case(rng)
    }
}

/// One measured campaign.
pub struct Measured {
    /// The campaign result.
    pub result: CampaignResult,
    /// The campaign's wall time cut into spans: from its start to its
    /// first case (setup included), then one span per window of
    /// [`WINDOW_CASES`] cases, the last ending with the campaign. A
    /// `fleet` campaign, whose cases run in the workers, has the spans
    /// `[0, wall]`.
    pub spans: Vec<f64>,
    /// The CPU seconds of this process in each span; the CPU seconds of
    /// the children reaped during the campaign (solver and worker
    /// processes, which end with it) count in the last span.
    pub cpu_spans: Vec<f64>,
    /// The fleet report, on `fleet`.
    pub fleet: Option<DistReport>,
}

impl Measured {
    /// Wall seconds, setup included.
    pub fn wall_s(&self) -> f64 {
        self.spans.iter().sum()
    }

    /// Wall seconds from the first case on.
    pub fn case_s(&self) -> f64 {
        self.spans[1..].iter().sum()
    }

    /// CPU seconds of this process and its reaped children.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_spans.iter().sum()
    }
}

/// Times a campaign of `config`, cutting its wall and CPU time at the
/// first `max_cases / WINDOW_CASES` of `marks` (later ones are
/// speculative cases past the cap).
fn measure(
    config: &CampaignConfig,
    marks: &Marks,
    run: impl FnOnce() -> io::Result<(CampaignResult, Option<DistReport>)>,
) -> io::Result<Measured> {
    let children = children_cpu_seconds();
    let start = (Instant::now(), self_cpu_seconds());
    let (result, fleet) = run()?;
    let end = (
        Instant::now(),
        self_cpu_seconds() + children_cpu_seconds() - children,
    );
    let mut edges = vec![start];
    let marks = marks.lock().expect("window marks poisoned");
    edges.extend(marks.iter().take(config.max_cases / WINDOW_CASES));
    if edges.len() == 1 {
        edges.push(start);
    }
    edges.push(end);
    let pairs = edges.windows(2);
    Ok(Measured {
        spans: pairs
            .clone()
            .map(|e| (e[1].0 - e[0].0).as_secs_f64())
            .collect(),
        cpu_spans: pairs.map(|e| e[1].1 - e[0].1).collect(),
        result,
        fleet,
    })
}

fn serial_exec(shards: u32) -> ExecConfig {
    ExecConfig {
        shards,
        parallelism: Parallelism::Serial,
        ..ExecConfig::default()
    }
}

/// The session-mode pipe backend of a plan.
fn pipe_backend(ctx: &Ctx, config: &CampaignConfig) -> PipeBackend {
    PipeBackend::new(ctx.mock_command(config)).with_mode(SolverMode::Session)
}

/// Fills a verdict-cache directory from all but the last
/// [`PIPE_MISSED_CASES`] cases of the plan at K = 1, which does not
/// speculate past the cap (untimed warm-up).
fn warm_cache(ctx: &Ctx, config: &CampaignConfig, dir: &Path) {
    let prefix = CampaignConfig {
        max_cases: config.max_cases - PIPE_MISSED_CASES,
        ..config.clone()
    };
    let backend = pipe_backend(ctx, config).with_cache_dir(dir);
    run_shard_piped(
        &mut Once4AllFuzzer::with_defaults(),
        &prefix,
        0,
        None,
        1,
        &backend,
    );
}

/// Copies the flat cache directory `from` into a fresh `to`, synced, so
/// that writing back the copy cannot slow the timed campaign's fsyncs.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let copy = to.join(entry.file_name());
        std::fs::copy(entry.path(), &copy)?;
        std::fs::File::open(&copy)?.sync_all()?;
    }
    std::fs::File::open(to)?.sync_all()
}

/// The fleet configuration: `FLEET_WORKERS` copies of this binary's
/// worker role over pipes.
pub fn fleet_config(ctx: &Ctx, journals: &Path, traced: bool) -> DistConfig {
    let mut command = vec![ctx.exe.clone(), "worker".to_string()];
    if traced {
        command.push("--trace".to_string());
    }
    DistConfig::new(command, journals).with_workers(FLEET_WORKERS)
}

/// Runs untraced campaign number `run` of `workload`, on the run's plan
/// number `plan`, timing it.
pub fn run_untraced(
    workload: Workload,
    ctx: &Ctx,
    config: &CampaignConfig,
    plan: usize,
    run: usize,
    setups: &Arc<Mutex<Vec<f64>>>,
) -> io::Result<Measured> {
    let tag = format!("c{run}");
    let marks = Marks::default();
    match workload {
        Workload::Inproc => {
            // As `run_campaign_resumable` journals any campaign.
            let store = FindingsStore::new(ctx.path(&format!("{tag}.jsonl")));
            let factory =
                |_shard: u32| Box::new(SetupTimed::new(setups, &marks)) as Box<dyn Fuzzer>;
            measure(config, &marks, || {
                run_campaign_resumable(factory, config, &serial_exec(1), &store).map(|r| (r, None))
            })
        }
        Workload::PipeCached => {
            let cache = ctx.path(&format!("{tag}-cache"));
            copy_dir(&ctx.template(plan), &cache)?;
            let backend = pipe_backend(ctx, config).with_cache_dir(&cache);
            let mut fuzzer = SetupTimed::new(setups, &marks);
            measure(config, &marks, || {
                let result = run_shard_piped(&mut fuzzer, config, 0, None, PIPE_INFLIGHT, &backend);
                Ok((result, None))
            })
        }
        Workload::Fleet => {
            let dist = fleet_config(ctx, &ctx.path(&format!("{tag}-journals")), false);
            measure(config, &marks, || {
                let report = run_distributed(config, FLEET_SHARDS, &dist)?;
                Ok((report.result.clone(), Some(report)))
            })
        }
    }
}

/// Fills the warm cache template of every plan on `pipe_cached`, before
/// anything is timed; a no-op on the other workloads.
pub fn warm_templates(workload: Workload, ctx: &Ctx, configs: &[CampaignConfig]) {
    if workload == Workload::PipeCached {
        parallel_map(configs.len(), 2, |i| {
            warm_cache(ctx, &configs[i], &ctx.template(i))
        });
    }
}

/// The reference digest of every plan, two plans at a time on the box's
/// two cores. Runs after the measured campaigns, so that their memory
/// high-water mark is the measured campaigns' own.
pub fn references(workload: Workload, ctx: &Ctx, configs: &[CampaignConfig]) -> Vec<u64> {
    parallel_map(configs.len(), 2, |i| {
        digest(&reference(workload, ctx, &configs[i]))
    })
}

/// The reference campaign of a plan, on an independent path: the serial
/// `run_campaign` for `inproc`, an uncached K = 1 pipe shard for
/// `pipe_cached`, and the in-process sharded engine with the fleet's
/// shard count for `fleet`.
fn reference(workload: Workload, ctx: &Ctx, config: &CampaignConfig) -> CampaignResult {
    match workload {
        Workload::Inproc => run_campaign(&mut Once4AllFuzzer::with_defaults(), config),
        Workload::PipeCached => run_shard_piped(
            &mut Once4AllFuzzer::with_defaults(),
            config,
            0,
            None,
            1,
            &pipe_backend(ctx, config),
        ),
        Workload::Fleet => run_campaign_sharded(
            |_shard| Box::new(Once4AllFuzzer::with_defaults()) as Box<dyn Fuzzer>,
            config,
            &serial_exec(FLEET_SHARDS),
        ),
    }
}

/// What the correctness gate found in one campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gate {
    /// Cases the plan asked for.
    pub planned: u64,
    /// Planned cases lost: not executed, lost to a respawned solver
    /// process or a re-issued lease, or all of them when the digest
    /// differs from the reference.
    pub failed: u64,
}

/// What the gate needs of one campaign, taken when it ends so that its
/// result need not be kept.
pub struct Check {
    seed: u64,
    planned: u64,
    problem: Option<String>,
    digest: u64,
    lost: u64,
}

/// Checks one campaign against its plan; [`Check::gate`] then compares
/// it with the reference digest.
pub fn check(
    config: &CampaignConfig,
    result: &CampaignResult,
    fleet: Option<&DistReport>,
) -> Check {
    let planned = config.max_cases as u64;
    // Merged statistics sum the virtual time of every shard, each of
    // which has the whole budget.
    let shards = if fleet.is_some() { FLEET_SHARDS } else { 1 };
    let budget_s = u64::from(config.virtual_hours) * 3600 * u64::from(shards);
    let problem = if result.stats.cases != planned {
        Some(format!("ran {} of {planned} cases", result.stats.cases))
    } else if result.stats.virtual_seconds >= budget_s {
        Some(format!("virtual budget of {budget_s} s ran out"))
    } else {
        None
    };
    let mut lost = result.stats.process_respawns;
    if let Some(report) = fleet {
        let shard_cases = config.max_cases.div_ceil(FLEET_SHARDS as usize) as u64;
        lost += report.stats.leases_reissued * shard_cases + u64::from(report.stats.worker_deaths);
    }
    Check {
        seed: config.seed,
        planned,
        problem,
        digest: digest(result),
        lost,
    }
}

impl Check {
    /// The gate's verdict, given the plan's reference digest.
    pub fn gate(&self, reference: u64) -> Gate {
        let problem = match &self.problem {
            Some(problem) => Some(problem.as_str()),
            None if self.digest != reference => Some("digest differs from the reference campaign"),
            None => None,
        };
        if let Some(problem) = problem {
            eprintln!("o4a-perf: campaign seed {}: {problem}", self.seed);
            return Gate {
                planned: self.planned,
                failed: self.planned,
            };
        }
        Gate {
            planned: self.planned,
            failed: self.lost.min(self.planned),
        }
    }
}

/// Checks one campaign against its plan and the reference digest.
pub fn gate(
    config: &CampaignConfig,
    result: &CampaignResult,
    fleet: Option<&DistReport>,
    reference: u64,
) -> Gate {
    check(config, result, fleet).gate(reference)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_seeds_differ_and_repeat() {
        assert_eq!(campaign_seed(7, 0), campaign_seed(7, 0));
        assert_ne!(campaign_seed(7, 0), campaign_seed(7, 1));
        assert_ne!(campaign_seed(7, 0), campaign_seed(8, 0));
    }

    #[test]
    fn workload_names_round_trip() {
        for (name, w) in [
            ("inproc", Workload::Inproc),
            ("pipe_cached", Workload::PipeCached),
            ("fleet", Workload::Fleet),
        ] {
            assert_eq!(Workload::parse(name), Some(w));
        }
        assert_eq!(Workload::parse("serial"), None);
    }
}
