//! The `Fuzzer` plugin interface and the Once4All fuzzer itself
//! (Algorithm 2's main loop).

use crate::fill::{adapt_fill_arena, parse_fill_into, synthesize_arena, ArenaFill};
use crate::seeds::parsed_seeds;
use crate::skeleton::{skeletonize_arena, ArenaSkeleton, SkeletonConfig};
use o4a_llm::{
    construct_generators, ConstructOptions, ConstructionReport, CorrectedGenerator, LlmProfile,
    SimulatedLlm, Validator,
};
use o4a_smtlib::{ArenaScript, Script, TermArena};
use o4a_solvers::{Frontend, SolverId};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::{Arc, Mutex, PoisonError};

/// One generated test case: SMT-LIB text plus the virtual cost of
/// producing it (LLM-per-input fuzzers are expensive here; Once4All is
/// nearly free after setup).
#[derive(Clone, Debug)]
pub struct TestCase {
    /// The SMT-LIB script text.
    pub text: String,
    /// Virtual microseconds spent generating it.
    pub gen_micros: u64,
}

/// A fuzzer plugin: Once4All, its variants, and all baselines implement
/// this, so the campaign runner compares them under identical protocol.
pub trait Fuzzer {
    /// Display name used in figures and tables.
    fn name(&self) -> String;
    /// One-time setup; returns virtual microseconds consumed (e.g. the LLM
    /// generator-construction investment).
    ///
    /// [`Once4AllFuzzer`] builds its generators once per process per
    /// [`LlmProfile`]: later setups with an equal profile reuse that
    /// construction and return the same virtual cost, so every campaign
    /// is charged the investment exactly as if it had paid it itself.
    fn setup(&mut self, rng: &mut StdRng) -> u64 {
        let _ = rng;
        0
    }
    /// Produces the next test case.
    fn next_case(&mut self, rng: &mut StdRng) -> TestCase;
}

/// A generator-construction validator backed by a real solver frontend —
/// what Algorithm 1 plugs in for `Parse(t)`.
pub struct FrontendValidator {
    solver: SolverId,
}

impl FrontendValidator {
    /// Creates a validator for one solver's frontend.
    pub fn new(solver: SolverId) -> FrontendValidator {
        FrontendValidator { solver }
    }
}

impl Validator for FrontendValidator {
    fn name(&self) -> &str {
        self.solver.name()
    }

    fn validate(&mut self, script_text: &str) -> Result<(), String> {
        Frontend::new(self.solver).validate(script_text)
    }
}

/// Configuration of the Once4All fuzzer.
#[derive(Clone, Debug)]
pub struct Once4AllConfig {
    /// Mutation iterations applied per selected seed (paper: 10).
    pub mutations_per_seed: usize,
    /// Skeleton extraction tuning.
    pub skeleton: SkeletonConfig,
    /// When false, skeletons are disabled and test cases are plain
    /// conjunctions of generated terms — the `Once4All w/oS` ablation.
    pub use_skeletons: bool,
    /// LLM profile used for generator construction.
    pub profile: LlmProfile,
    /// Maximum fills per skeleton.
    pub max_fills: usize,
}

impl Default for Once4AllConfig {
    fn default() -> Self {
        Once4AllConfig {
            mutations_per_seed: 10,
            skeleton: SkeletonConfig::default(),
            use_skeletons: true,
            profile: LlmProfile::gpt4(),
            max_fills: 2,
        }
    }
}

/// Generator constructions made in this process, keyed by the whole
/// profile (the ablation profiles differ from GPT-4's in more than their
/// kind). See [`Once4AllFuzzer::new`] for why sharing them is exact.
static CONSTRUCTIONS: Mutex<Vec<(LlmProfile, Arc<ConstructionReport>)>> = Mutex::new(Vec::new());

/// The Once4All fuzzer: skeleton-guided mutation with LLM-synthesized
/// generators.
pub struct Once4AllFuzzer {
    config: Once4AllConfig,
    seeds: Vec<Script>,
    /// The generators, shared with every fuzzer of this process that has
    /// the same profile (set by [`Fuzzer::setup`]).
    construction: Option<Arc<ConstructionReport>>,
    /// The per-fuzzer term arena; reset whenever a fresh seed is loaded.
    arena: TermArena,
    current: Option<ArenaScript>,
    iterations_left: usize,
    cases_emitted: u64,
    invalid_fills: u64,
    total_fills: u64,
    /// Reusable print buffer — cases are rendered into it and cloned out,
    /// so the printer never reallocates once it has grown to steady state.
    print_buf: String,
}

impl Once4AllFuzzer {
    /// Creates the fuzzer with a configuration; generators are synthesized
    /// in [`Fuzzer::setup`].
    ///
    /// Synthesis (Algorithm 1) runs once per process per profile and is
    /// shared by every later fuzzer with an equal [`LlmProfile`]. That is
    /// deterministic-safe because construction is a pure function of the
    /// profile: the simulated LLM seeds from `profile.seed`, the corpus is
    /// static, the frontend validators keep no state between calls, and
    /// `setup` draws nothing from its RNG. A reused construction is
    /// therefore equal to a fresh one, virtual cost included.
    pub fn new(config: Once4AllConfig) -> Once4AllFuzzer {
        Once4AllFuzzer {
            config,
            seeds: parsed_seeds(),
            construction: None,
            arena: TermArena::new(),
            current: None,
            iterations_left: 0,
            cases_emitted: 0,
            invalid_fills: 0,
            total_fills: 0,
            print_buf: String::new(),
        }
    }

    /// The default (paper) configuration.
    pub fn with_defaults() -> Once4AllFuzzer {
        Once4AllFuzzer::new(Once4AllConfig::default())
    }

    /// The construction-phase report (after setup).
    pub fn construction_report(&self) -> Option<&ConstructionReport> {
        self.construction.as_deref()
    }

    /// The corrected generators (empty before setup).
    fn generators(&self) -> &[CorrectedGenerator] {
        self.construction
            .as_deref()
            .map_or(&[], |report| &report.generators)
    }

    /// Fraction of generator samples that were invalid during fuzzing.
    pub fn invalid_fill_rate(&self) -> f64 {
        if self.total_fills == 0 {
            0.0
        } else {
            self.invalid_fills as f64 / self.total_fills as f64
        }
    }

    fn draw_fill(&mut self, rng: &mut StdRng) -> Result<ArenaFill, String> {
        self.draw_fill_from(None, rng)
    }

    /// Draws a fill, preferring the focus generator when one is given
    /// (deep single-theory interaction is what exposes theory-internal
    /// bugs; cross-theory mixing still happens 30% of the time).
    fn draw_fill_from(
        &mut self,
        focus: Option<usize>,
        rng: &mut StdRng,
    ) -> Result<ArenaFill, String> {
        let count = self.generators().len();
        if count == 0 {
            return Err("no generators constructed".into());
        }
        let gi = match focus {
            Some(g) if rng.gen_bool(0.7) => g,
            _ => rng.gen_range(0..count),
        };
        let mut sample_rng = StdRng::from_rng_seed(rng.gen());
        self.total_fills += 1;
        let raw = self.generators()[gi]
            .program
            .generate(&mut sample_rng)
            .map_err(|e| e.to_string())?;
        match parse_fill_into(&raw, &mut self.arena) {
            Ok(f) => Ok(f),
            Err(e) => {
                self.invalid_fills += 1;
                Err(e)
            }
        }
    }

    /// Emits a skeleton-free case (the w/oS variant and the fallback when a
    /// seed yields no usable skeleton).
    fn generator_only_case(&mut self, rng: &mut StdRng) -> ArenaScript {
        let n = rng.gen_range(1..=self.config.max_fills.max(1));
        let mut fills = Vec::new();
        for _ in 0..n {
            if let Ok(f) = self.draw_fill(rng) {
                fills.push(f);
            }
        }
        // Assemble a flat conjunction script.
        let mut script = ArenaScript::new();
        let mut declared = std::collections::BTreeMap::new();
        for f in &fills {
            for (name, sort) in &f.decls {
                declared.entry(name.clone()).or_insert_with(|| sort.clone());
            }
        }
        for (name, sort) in declared {
            script
                .commands
                .push(o4a_smtlib::ArenaCommand::DeclareConst(name, sort));
        }
        for f in &fills {
            script
                .commands
                .push(o4a_smtlib::ArenaCommand::Assert(f.term));
        }
        if fills.is_empty() {
            let tru = self.arena.mk_const(o4a_smtlib::Value::Bool(true));
            script.commands.push(o4a_smtlib::ArenaCommand::Assert(tru));
        }
        script.ensure_check_sat();
        script
    }
}

/// Extension trait alias for seeding an `StdRng` from another RNG draw.
trait FromRngSeed {
    fn from_rng_seed(seed: u64) -> StdRng;
}

impl FromRngSeed for StdRng {
    fn from_rng_seed(seed: u64) -> StdRng {
        use rand::SeedableRng;
        StdRng::seed_from_u64(seed)
    }
}

impl Fuzzer for Once4AllFuzzer {
    fn name(&self) -> String {
        let mut name = "Once4All".to_string();
        if !self.config.use_skeletons {
            name.push_str(" w/oS");
        }
        match self.config.profile.kind {
            o4a_llm::LlmKind::Gpt4 => {}
            o4a_llm::LlmKind::Gemini25Pro => name.push_str(" (Gemini)"),
            o4a_llm::LlmKind::Claude45Sonnet => name.push_str(" (Claude)"),
        }
        name
    }

    fn setup(&mut self, _rng: &mut StdRng) -> u64 {
        // Held across construction, so concurrent setups build once and
        // the rest wait for that result. The memo changes only by a push
        // after construction, so a lock poisoned mid-construction still
        // guards a valid memo.
        let mut memo = CONSTRUCTIONS.lock().unwrap_or_else(PoisonError::into_inner);
        let profile = &self.config.profile;
        let report = match memo.iter().find(|(p, _)| p == profile) {
            Some((_, report)) => Arc::clone(report),
            None => {
                let mut llm = SimulatedLlm::new(profile.clone());
                let docs = o4a_llm::corpus::corpus();
                let mut validators: Vec<Box<dyn Validator>> = vec![
                    Box::new(FrontendValidator::new(SolverId::OxiZ)),
                    Box::new(FrontendValidator::new(SolverId::Cervo)),
                ];
                let report = Arc::new(construct_generators(
                    &mut llm,
                    &docs,
                    &mut validators,
                    ConstructOptions::default(),
                ));
                memo.push((profile.clone(), Arc::clone(&report)));
                report
            }
        };
        let cost = report.total_llm_micros;
        self.construction = Some(report);
        cost
    }

    fn next_case(&mut self, rng: &mut StdRng) -> TestCase {
        self.cases_emitted += 1;
        self.print_buf.clear();
        if !self.config.use_skeletons {
            // No skeleton state survives between cases, so the arena can be
            // recycled every time.
            self.arena.reset();
            let script = self.generator_only_case(rng);
            script.print_into(&self.arena, &mut self.print_buf);
        } else {
            // Algorithm 2: pick a seed, then mutate it for N iterations
            // before picking the next.
            if self.current.is_none() || self.iterations_left == 0 {
                let k = rng.gen_range(0..self.seeds.len());
                // Fresh seed: nothing references the arena any more, so all
                // terms accumulated across the previous mutation chain can
                // be dropped at once.
                self.arena.reset();
                self.current = Some(ArenaScript::from_script(&self.seeds[k], &mut self.arena));
                self.iterations_left = self.config.mutations_per_seed;
            }
            self.iterations_left -= 1;
            let seed = self.current.clone().expect("seed selected above");
            let skeleton: ArenaSkeleton =
                skeletonize_arena(&seed, &mut self.arena, self.config.skeleton, rng);
            let n_fills = rng.gen_range(1..=self.config.max_fills.max(1));
            let count = self.generators().len();
            let focus = (count > 0).then(|| rng.gen_range(0..count));
            let mut fills = Vec::new();
            for _ in 0..n_fills {
                if let Ok(f) = self.draw_fill_from(focus, rng) {
                    fills.push(adapt_fill_arena(&f, &skeleton, &mut self.arena, rng));
                }
            }
            if fills.is_empty() {
                // All samples invalid this round: fall back to a
                // generator-only case so throughput is preserved.
                let script = self.generator_only_case(rng);
                script.print_into(&self.arena, &mut self.print_buf);
            } else {
                let out = synthesize_arena(&skeleton, &fills, &mut self.arena, rng);
                out.print_into(&self.arena, &mut self.print_buf);
                // The mutant becomes the next iteration's seed (the paper
                // mutates f in place across the repeat loop) — unless it
                // outgrew the size budget, in which case the next call
                // restarts from a fresh seed (keeps throughput and mean
                // formula size in the paper's ballpark).
                if self.print_buf.len() > 3_000 {
                    self.current = None;
                } else {
                    self.current = Some(out);
                }
            }
        }
        let text = self.print_buf.clone();
        let gen_micros = 150 + text.len() as u64;
        TestCase { text, gen_micros }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup_fuzzer(cfg: Once4AllConfig) -> Once4AllFuzzer {
        let mut f = Once4AllFuzzer::new(cfg);
        let mut rng = StdRng::seed_from_u64(1);
        let cost = f.setup(&mut rng);
        assert!(cost > 0, "construction must cost LLM latency");
        f
    }

    #[test]
    fn produces_parseable_cases() {
        let mut f = setup_fuzzer(Once4AllConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let mut parsed_ok = 0;
        for _ in 0..60 {
            let case = f.next_case(&mut rng);
            if o4a_smtlib::parse_script(&case.text).is_ok() {
                parsed_ok += 1;
            }
            assert!(case.text.contains("(check-sat)"));
        }
        assert!(parsed_ok >= 55, "only {parsed_ok}/60 parse");
    }

    #[test]
    fn skeleton_cases_keep_structural_features() {
        let mut f = setup_fuzzer(Once4AllConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let mut quantified = 0;
        for _ in 0..80 {
            let case = f.next_case(&mut rng);
            if case.text.contains("forall") || case.text.contains("exists") {
                quantified += 1;
            }
        }
        assert!(
            quantified >= 10,
            "skeletons should preserve quantifiers, saw {quantified}/80"
        );
    }

    #[test]
    fn wos_variant_never_emits_quantifiers() {
        let mut f = setup_fuzzer(Once4AllConfig {
            use_skeletons: false,
            ..Once4AllConfig::default()
        });
        assert_eq!(f.name(), "Once4All w/oS");
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..40 {
            let case = f.next_case(&mut rng);
            assert!(!case.text.contains("forall"));
            assert!(!case.text.contains("exists"));
        }
    }

    #[test]
    fn cases_cover_extended_theories() {
        let mut f = setup_fuzzer(Once4AllConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let mut extended = 0;
        for _ in 0..120 {
            let case = f.next_case(&mut rng);
            if case.text.contains("ff.")
                || case.text.contains("set.")
                || case.text.contains("bag")
                || case.text.contains("rel.")
            {
                extended += 1;
            }
        }
        assert!(
            extended >= 15,
            "generators must reach extended theories, saw {extended}/120"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let make = || {
            let mut f = setup_fuzzer(Once4AllConfig::default());
            let mut rng = StdRng::seed_from_u64(9);
            (0..10)
                .map(|_| f.next_case(&mut rng).text)
                .collect::<Vec<_>>()
        };
        assert_eq!(make(), make());
    }

    /// Algorithm 1 run directly, without the memo, as `setup` runs it.
    fn direct_construction(profile: LlmProfile) -> ConstructionReport {
        let mut llm = SimulatedLlm::new(profile);
        let mut validators: Vec<Box<dyn Validator>> = vec![
            Box::new(FrontendValidator::new(SolverId::OxiZ)),
            Box::new(FrontendValidator::new(SolverId::Cervo)),
        ];
        construct_generators(
            &mut llm,
            &o4a_llm::corpus::corpus(),
            &mut validators,
            ConstructOptions::default(),
        )
    }

    fn first_cases(f: &mut Once4AllFuzzer, n: usize) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(21);
        (0..n).map(|_| f.next_case(&mut rng).text).collect()
    }

    #[test]
    fn memoized_setup_equals_direct_construction() {
        let direct = direct_construction(LlmProfile::gpt4());
        let mut rng = StdRng::seed_from_u64(1);
        let mut first = Once4AllFuzzer::with_defaults();
        let mut second = Once4AllFuzzer::with_defaults();
        assert_eq!(first.setup(&mut rng), direct.total_llm_micros);
        assert_eq!(second.setup(&mut rng), direct.total_llm_micros);
        assert_eq!(first.generators(), &direct.generators[..]);
        assert_eq!(second.generators(), &direct.generators[..]);
        // A fuzzer over a fresh construction emits the same cases as the
        // ones over the shared one.
        let mut fresh = Once4AllFuzzer::with_defaults();
        fresh.construction = Some(Arc::new(direct));
        let expected = first_cases(&mut fresh, 50);
        assert_eq!(first_cases(&mut first, 50), expected);
        assert_eq!(first_cases(&mut second, 50), expected);
    }

    #[test]
    fn memo_keys_on_the_whole_profile() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut gpt4 = Once4AllFuzzer::with_defaults();
        gpt4.setup(&mut rng);
        let mut gemini = Once4AllFuzzer::new(Once4AllConfig {
            profile: LlmProfile::gemini(),
            ..Once4AllConfig::default()
        });
        let cost = gemini.setup(&mut rng);
        let report = gemini.construction_report().expect("set up");
        assert_eq!(*report, direct_construction(LlmProfile::gemini()));
        assert_eq!(cost, report.total_llm_micros);
        assert_ne!(Some(report), gpt4.construction_report());
    }

    #[test]
    fn concurrent_setups_share_one_construction() {
        let barrier = std::sync::Barrier::new(4);
        let reports: Vec<Arc<ConstructionReport>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut f = Once4AllFuzzer::with_defaults();
                        barrier.wait();
                        f.setup(&mut StdRng::seed_from_u64(1));
                        f.construction.expect("set up")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("setup thread"))
                .collect()
        });
        assert!(reports.iter().all(|r| Arc::ptr_eq(r, &reports[0])));
    }

    #[test]
    fn invalid_fill_rate_is_low_after_correction() {
        let mut f = setup_fuzzer(Once4AllConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..150 {
            f.next_case(&mut rng);
        }
        let rate = f.invalid_fill_rate();
        assert!(
            rate < 0.35,
            "invalid fill rate {rate:.2} too high after self-correction"
        );
    }
}
