//! Algorithm 1: LLM-assisted generator construction with self-correction.
//!
//! For each theory document: summarize a CFG, synthesize a generator, then
//! repeatedly (≤ 10 rounds) sample 20 terms, validate them against the
//! solvers' frontends, distill the errors, and ask the LLM to refine the
//! generator — keeping the best revision seen. This phase is the paper's
//! **one-time investment**: its entire LLM cost is paid here and never
//! again during fuzzing.

use crate::corpus::TheoryDoc;
use crate::generator::{sample_rng, GeneratorProgram};
use crate::llm::{distill_errors, SimulatedLlm};
use o4a_smtlib::Theory;

/// Validates candidate scripts the way a solver frontend would. The fuzzing
/// stack plugs the real solver frontends in here; unit tests use a
/// typechecker-only validator.
pub trait Validator {
    /// Validator display name (solver name in practice).
    fn name(&self) -> &str;
    /// Returns `Ok(())` when the script parses and sort-checks.
    ///
    /// # Errors
    ///
    /// The solver-style error message otherwise.
    fn validate(&mut self, script_text: &str) -> Result<(), String>;
}

/// A validator built on `o4a-smtlib`'s parser and sort checker alone.
#[derive(Clone, Copy, Debug, Default)]
pub struct TypecheckValidator;

impl Validator for TypecheckValidator {
    fn name(&self) -> &str {
        "typecheck"
    }

    fn validate(&mut self, script_text: &str) -> Result<(), String> {
        let script = o4a_smtlib::parse_script(script_text).map_err(|e| e.to_string())?;
        o4a_smtlib::typeck::check_script(&script)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// Options for Algorithm 1.
#[derive(Clone, Copy, Debug)]
pub struct ConstructOptions {
    /// Samples per validation round (paper: 20).
    pub sample_num: usize,
    /// Maximum refinement rounds (paper: 10).
    pub max_iter: u32,
    /// Sample count for the before/after validity measurement (§5.1).
    pub measure_samples: usize,
    /// RNG seed for sampling.
    pub seed: u64,
}

impl Default for ConstructOptions {
    fn default() -> Self {
        ConstructOptions {
            sample_num: 20,
            max_iter: 10,
            measure_samples: 100,
            seed: 0x04a1,
        }
    }
}

/// One corrected generator with its construction statistics.
#[derive(Clone, PartialEq, Debug)]
pub struct CorrectedGenerator {
    /// The final (best) generator revision.
    pub program: GeneratorProgram,
    /// Fraction of valid samples before any correction.
    pub validity_before: f64,
    /// Fraction of valid samples after correction.
    pub validity_after: f64,
    /// Refinement rounds actually used.
    pub iterations: u32,
}

/// The output of the construction phase.
#[derive(Clone, PartialEq, Debug)]
pub struct ConstructionReport {
    /// One corrected generator per input document.
    pub generators: Vec<CorrectedGenerator>,
    /// Total LLM virtual latency spent (the one-time investment).
    pub total_llm_micros: u64,
    /// Total LLM requests issued.
    pub total_requests: u64,
}

impl ConstructionReport {
    /// Finds the generator for a theory.
    pub fn generator_for(&self, theory: Theory) -> Option<&CorrectedGenerator> {
        self.generators.iter().find(|g| g.program.theory == theory)
    }
}

/// Runs Algorithm 1 over a documentation corpus.
pub fn construct_generators(
    llm: &mut SimulatedLlm,
    docs: &[TheoryDoc],
    validators: &mut [Box<dyn Validator>],
    opts: ConstructOptions,
) -> ConstructionReport {
    let mut generators = Vec::new();
    for doc in docs {
        // Line 5: summarize the CFG.
        let cfg_text = llm.summarize_cfg(doc);
        // Line 7: implement the generator; re-ask once on a malformed CFG.
        let program = match llm.implement_generator(doc.theory, &cfg_text) {
            Ok(p) => p,
            Err(_) => {
                let retry = llm.summarize_cfg(doc);
                match llm.implement_generator(doc.theory, &retry) {
                    Ok(p) => p,
                    Err(_) => continue, // the model failed this theory
                }
            }
        };
        // Line 8: self-correction.
        let corrected = correct(program, llm, validators, doc.theory, opts);
        generators.push(corrected);
    }
    ConstructionReport {
        generators,
        total_llm_micros: llm.spent_micros,
        total_requests: llm.requests,
    }
}

/// The `Correct` function of Algorithm 1.
fn correct(
    mut program: GeneratorProgram,
    llm: &mut SimulatedLlm,
    validators: &mut [Box<dyn Validator>],
    theory: Theory,
    opts: ConstructOptions,
) -> CorrectedGenerator {
    let initial = program.clone();
    let validity_before = measure_validity(&initial, validators, opts.measure_samples, opts.seed);

    let mut best = program.clone();
    let mut max_valid = 0usize;
    let mut iter = 0u32;
    while max_valid < opts.sample_num && iter < opts.max_iter {
        iter += 1;
        let mut errors: Vec<String> = Vec::new();
        let mut valid_cnt = 0usize;
        let mut rng = sample_rng(opts.seed ^ (iter as u64) << 32 ^ hash_theory(theory));
        for _ in 0..opts.sample_num {
            match program.generate(&mut rng) {
                Ok(raw) => {
                    let script = raw.to_script_text();
                    // A term is valid when at least one solver accepts it.
                    // When none does, keep the most *informative* error:
                    // a solver that rejects the whole theory ("not
                    // supported") teaches the LLM nothing about the term.
                    let mut accepted = false;
                    let mut candidate_errors: Vec<String> = Vec::new();
                    for v in validators.iter_mut() {
                        match v.validate(&script) {
                            Ok(()) => {
                                accepted = true;
                                break;
                            }
                            Err(e) => candidate_errors.push(e),
                        }
                    }
                    if accepted {
                        valid_cnt += 1;
                    } else if let Some(e) = candidate_errors
                        .iter()
                        .find(|e| !e.contains("not supported"))
                        .or_else(|| candidate_errors.first())
                    {
                        errors.push(e.clone());
                    }
                }
                Err(e) => errors.push(format!("generator crashed: {e}")),
            }
        }
        if valid_cnt > max_valid {
            max_valid = valid_cnt;
            best = program.clone();
        }
        if valid_cnt < opts.sample_num {
            let classes = distill_errors(theory, &errors);
            if classes.is_empty() {
                break; // nothing actionable; keep best-so-far
            }
            llm.refine_generator(&mut program, &classes, iter);
        }
    }
    // Line 31: retain the best revision.
    let final_program = if max_valid >= opts.sample_num {
        program
    } else {
        best
    };
    let validity_after = measure_validity(
        &final_program,
        validators,
        opts.measure_samples,
        opts.seed ^ 0xdead,
    );
    CorrectedGenerator {
        program: final_program,
        validity_before,
        validity_after,
        iterations: iter,
    }
}

/// Measures the valid fraction over `n` fresh samples.
pub fn measure_validity(
    program: &GeneratorProgram,
    validators: &mut [Box<dyn Validator>],
    n: usize,
    seed: u64,
) -> f64 {
    let mut rng = sample_rng(seed ^ hash_theory(program.theory));
    let mut valid = 0usize;
    for _ in 0..n {
        if let Ok(raw) = program.generate(&mut rng) {
            let script = raw.to_script_text();
            if validators.iter_mut().any(|v| v.validate(&script).is_ok()) {
                valid += 1;
            }
        }
    }
    valid as f64 / n.max(1) as f64
}

fn hash_theory(t: Theory) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in t.name().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::corpus;
    use crate::profile::LlmProfile;

    fn validators() -> Vec<Box<dyn Validator>> {
        vec![Box::new(TypecheckValidator)]
    }

    #[test]
    fn construction_produces_all_generators() {
        let mut llm = SimulatedLlm::new(LlmProfile::gpt4());
        let docs = corpus();
        let mut vs = validators();
        let report = construct_generators(&mut llm, &docs, &mut vs, ConstructOptions::default());
        assert_eq!(report.generators.len(), docs.len());
        assert!(report.total_llm_micros > 0);
    }

    #[test]
    fn correction_improves_validity_markedly() {
        let mut llm = SimulatedLlm::new(LlmProfile::gpt4());
        let docs = corpus();
        let mut vs = validators();
        let report = construct_generators(&mut llm, &docs, &mut vs, ConstructOptions::default());
        for g in &report.generators {
            assert!(
                g.validity_after >= g.validity_before - 0.05,
                "{}: validity regressed {:.2} -> {:.2}",
                g.program.theory,
                g.validity_before,
                g.validity_after
            );
            assert!(
                g.validity_after >= 0.8,
                "{}: final validity {:.2} below the paper's floor",
                g.program.theory,
                g.validity_after
            );
        }
        // The paper's headline contrast: finite fields start under ~30%
        // valid, real arithmetic starts above 90%.
        let ff = report
            .generator_for(o4a_smtlib::Theory::FiniteFields)
            .unwrap();
        assert!(
            ff.validity_before < 0.5,
            "finite fields should start badly, got {:.2}",
            ff.validity_before
        );
        let reals = report.generator_for(o4a_smtlib::Theory::Reals).unwrap();
        assert!(
            reals.validity_before > 0.8,
            "reals should start well, got {:.2}",
            reals.validity_before
        );
    }

    #[test]
    fn construction_is_deterministic() {
        let run = || {
            let mut llm = SimulatedLlm::new(LlmProfile::gpt4());
            let docs = corpus();
            let mut vs = validators();
            let report =
                construct_generators(&mut llm, &docs, &mut vs, ConstructOptions::default());
            report
                .generators
                .iter()
                .map(|g| (g.program.theory, g.iterations, g.program.revision))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn one_time_investment_is_bounded() {
        let mut llm = SimulatedLlm::new(LlmProfile::gpt4());
        let docs = corpus();
        let mut vs = validators();
        let report = construct_generators(&mut llm, &docs, &mut vs, ConstructOptions::default());
        // Construction uses a bounded number of LLM calls (≤ 12 per theory),
        // unlike per-input LLM fuzzers.
        assert!(report.total_requests <= 12 * docs.len() as u64 + 2);
    }
}
