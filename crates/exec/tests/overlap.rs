//! The acceptance criterion of the shard loop over in-process lanes: a
//! shard run through the async lane bank is **bit-identical** to the
//! serial stepper (`run_campaign`) for the same seed — identical
//! `CampaignStats`, identical findings (hence deduplicated issue sets),
//! identical raw and final coverage maps, and identical hourly snapshot
//! series, raw per-hour maps included. Plus the window-wider-than-the-
//! campaign boundary and the env-knob parses.

use o4a_core::{dedup, run_campaign, CampaignConfig, CampaignResult, Once4AllFuzzer};
use o4a_exec::{run_campaign_sharded, run_shard, ExecConfig, Parallelism};
use o4a_solvers::coverage::universe;
use o4a_solvers::SolverId;

fn quick_config() -> CampaignConfig {
    CampaignConfig {
        virtual_hours: 2,
        time_scale: 2_000_000, // smoke-test scale: a few dozen cases
        max_cases: 60,
        ..CampaignConfig::default()
    }
}

/// One snapshot row: hour, cases, issues, and per-solver coverage
/// percentage bits.
type SnapshotRow = (u32, u64, usize, Vec<(SolverId, u64, u64)>);

/// Raw per-solver coverage maps, exported by function name.
type RawMaps = Vec<(SolverId, Vec<(String, u32)>)>;

/// Everything a campaign result observable to experiments contains, in a
/// directly comparable form. `vhour` is compared through `to_bits` — the
/// claim is bit-identity, not approximate agreement.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    stats: o4a_core::CampaignStats,
    findings: Vec<(String, SolverId, String, Option<String>, u64)>,
    issues: Vec<String>,
    coverage: RawMaps,
    final_coverage: Vec<(SolverId, u64, u64)>,
    snapshots: Vec<SnapshotRow>,
    hourly_coverage: Vec<RawMaps>,
}

fn fingerprint(result: &CampaignResult) -> Fingerprint {
    let pct_bits = |p: &o4a_core::CoveragePoint| (p.line_pct.to_bits(), p.function_pct.to_bits());
    Fingerprint {
        stats: result.stats.clone(),
        findings: result
            .findings
            .iter()
            .map(|f| {
                (
                    f.case_text.clone(),
                    f.solver,
                    format!("{:?}", f.kind),
                    f.signature.clone(),
                    f.vhour.to_bits(),
                )
            })
            .collect(),
        issues: dedup(&result.findings).into_iter().map(|i| i.key).collect(),
        coverage: result
            .coverage
            .iter()
            .map(|(&s, m)| (s, m.export(&universe(s))))
            .collect(),
        final_coverage: result
            .final_coverage
            .iter()
            .map(|(&s, p)| {
                let (l, f) = pct_bits(p);
                (s, l, f)
            })
            .collect(),
        snapshots: result
            .snapshots
            .iter()
            .map(|s| {
                (
                    s.hour,
                    s.cases,
                    s.issues,
                    s.coverage
                        .iter()
                        .map(|(&id, p)| {
                            let (l, f) = pct_bits(p);
                            (id, l, f)
                        })
                        .collect(),
                )
            })
            .collect(),
        hourly_coverage: result
            .hourly_coverage
            .iter()
            .map(|maps| {
                maps.iter()
                    .map(|(&s, m)| (s, m.export(&universe(s))))
                    .collect()
            })
            .collect(),
    }
}

fn serial_reference(config: &CampaignConfig) -> CampaignResult {
    let mut fuzzer = Once4AllFuzzer::with_defaults();
    run_campaign(&mut fuzzer, config)
}

/// The in-process lane bank at its window of one reproduces the serial
/// stepper bit for bit. Two time scales: the smoke scale, and a coarser
/// one where a single case can jump a whole virtual hour (the snapshot
/// boundary case).
#[test]
fn in_process_shard_is_bit_identical_to_run_campaign() {
    for time_scale in [2_000_000u64, 500_000] {
        let config = CampaignConfig {
            time_scale,
            ..quick_config()
        };
        let reference = fingerprint(&serial_reference(&config));
        assert!(reference.stats.cases > 0, "reference ran no cases");
        assert!(
            !reference.hourly_coverage.is_empty(),
            "reference recorded no hourly coverage maps"
        );
        let mut fuzzer = Once4AllFuzzer::with_defaults();
        let shard = run_shard(&mut fuzzer, &config, 0, None);
        assert_eq!(
            fingerprint(&shard),
            reference,
            "in-process shard diverged from run_campaign at time_scale {time_scale}"
        );
    }
}

/// The speculative-overrun boundary on the in-process path: an engine
/// asked for a window of 32 on a five-case campaign runs its in-process
/// lanes at their fixed window of one, so no case past the cap is
/// generated, counted or journaled, and the result is the serial one.
#[test]
fn inflight_window_larger_than_campaign_is_still_identical() {
    let config = CampaignConfig {
        max_cases: 5,
        time_scale: 100_000, // cheap cases: the case cap binds, not hours
        ..quick_config()
    };
    let reference = fingerprint(&serial_reference(&config));
    assert_eq!(reference.stats.cases, 5);
    let wide = run_campaign_sharded(
        |_shard| Box::new(Once4AllFuzzer::with_defaults()) as Box<dyn o4a_core::Fuzzer>,
        &config,
        &ExecConfig {
            shards: 1,
            parallelism: Parallelism::Serial,
            inflight: 32,
            ..ExecConfig::default()
        },
    );
    assert_eq!(fingerprint(&wide), reference);
}

/// `ExecConfig::from_env` is how `O4A_INFLIGHT` reaches the pipe
/// transport; the default must stay one case in flight.
#[test]
fn exec_config_env_default_is_serial() {
    if std::env::var_os("O4A_INFLIGHT").is_none() {
        assert_eq!(ExecConfig::from_env().inflight, 1);
    } else {
        // Set in the environment: the knob must round-trip.
        let expect: usize = std::env::var("O4A_INFLIGHT").unwrap().parse().unwrap();
        assert_eq!(ExecConfig::from_env().inflight, expect.max(1));
    }
}

/// The `O4A_SOLVER_MODE` knob: unset (or unparseable) means spawn —
/// process-per-query stays the default transport — and the CI session
/// legs reach the engine through the same string the env carries.
#[test]
fn exec_config_solver_mode_knob_parses() {
    use o4a_solvers::SolverMode;
    match std::env::var("O4A_SOLVER_MODE") {
        Err(_) => assert_eq!(ExecConfig::from_env().solver_mode, SolverMode::Spawn),
        Ok(raw) => assert_eq!(
            ExecConfig::from_env().solver_mode,
            SolverMode::parse(&raw).unwrap_or_default()
        ),
    }
    assert_eq!(SolverMode::parse("session"), Some(SolverMode::Session));
    assert_eq!(SolverMode::parse(" SPAWN "), Some(SolverMode::Spawn));
    assert_eq!(SolverMode::parse("both"), None);
}
