//! LLM profiles: the knobs that distinguish GPT-4 from Gemini 2.5 Pro and
//! Claude Sonnet 4.5 in the sensitivity study (paper §4.4).
//!
//! A profile controls how *flawed* freshly-synthesized generators are (per
//! theory) and how effective each self-correction round is. The paper finds
//! the framework robust to the choice of LLM; these profiles differ by a
//! few percent, which reproduces exactly that finding.

use o4a_smtlib::Theory;

/// Identifies a simulated LLM.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LlmKind {
    /// GPT-4 — the paper's default model.
    Gpt4,
    /// Gemini 2.5 Pro — variant study.
    Gemini25Pro,
    /// Claude Sonnet 4.5 — variant study.
    Claude45Sonnet,
}

impl LlmKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            LlmKind::Gpt4 => "gpt-4",
            LlmKind::Gemini25Pro => "gemini-2.5-pro",
            LlmKind::Claude45Sonnet => "claude-4.5-sonnet",
        }
    }
}

/// Behavioural parameters of a simulated LLM.
#[derive(Clone, PartialEq, Debug)]
pub struct LlmProfile {
    /// Which model this is.
    pub kind: LlmKind,
    /// RNG stream id, so different models make different (deterministic)
    /// mistakes.
    pub seed: u64,
    /// Probability of dropping one documented signature while summarizing.
    pub p_drop_signature: f64,
    /// Multiplier on per-theory hallucination rates.
    pub hallucination_scale: f64,
    /// Probability of giving one signature the wrong arity.
    pub p_wrong_arity: f64,
    /// Probability that one refinement round actually removes a diagnosed
    /// flaw class.
    pub repair_effectiveness: f64,
    /// Virtual latency of one completion request, in microseconds. LLM
    /// phases are metered with this (Once4All pays it once per theory;
    /// Fuzz4All-style baselines pay it per generated input).
    pub request_latency_micros: u64,
}

impl LlmProfile {
    /// The paper's default model.
    pub fn gpt4() -> LlmProfile {
        LlmProfile {
            kind: LlmKind::Gpt4,
            seed: 0x6f34_a11a,
            p_drop_signature: 0.015,
            hallucination_scale: 1.0,
            p_wrong_arity: 0.10,
            repair_effectiveness: 0.75,
            request_latency_micros: 6_000_000,
        }
    }

    /// Gemini 2.5 Pro variant.
    pub fn gemini() -> LlmProfile {
        LlmProfile {
            kind: LlmKind::Gemini25Pro,
            seed: 0x9e3f_77b1,
            p_drop_signature: 0.02,
            hallucination_scale: 1.1,
            p_wrong_arity: 0.08,
            repair_effectiveness: 0.78,
            request_latency_micros: 5_000_000,
        }
    }

    /// Claude Sonnet 4.5 variant.
    pub fn claude() -> LlmProfile {
        LlmProfile {
            kind: LlmKind::Claude45Sonnet,
            seed: 0xc1a0_de45,
            p_drop_signature: 0.01,
            hallucination_scale: 0.9,
            p_wrong_arity: 0.09,
            repair_effectiveness: 0.80,
            request_latency_micros: 7_000_000,
        }
    }

    /// Base flaw rates for a theory, before model scaling. Syntactically
    /// intricate or recently-added theories (finite fields above all) start
    /// far less valid — the paper reports sub-30% for finite fields and
    /// 90%+ for real arithmetic.
    pub fn theory_flaw_rates(&self, theory: Theory) -> TheoryFlawRates {
        let base = match theory {
            Theory::FiniteFields => TheoryFlawRates {
                p_bare_literals: 0.95,
                p_mixed_widths: 0.80,
                p_missing_decls: 0.30,
                p_hallucinate: 0.70,
                p_unquoted_strings: 0.0,
            },
            Theory::BitVectors => TheoryFlawRates {
                p_bare_literals: 0.0,
                p_mixed_widths: 0.85,
                p_missing_decls: 0.20,
                p_hallucinate: 0.35,
                p_unquoted_strings: 0.0,
            },
            Theory::Strings => TheoryFlawRates {
                p_bare_literals: 0.0,
                p_mixed_widths: 0.0,
                p_missing_decls: 0.20,
                p_hallucinate: 0.30,
                p_unquoted_strings: 0.40,
            },
            Theory::Sequences | Theory::Sets => TheoryFlawRates {
                p_bare_literals: 0.0,
                p_mixed_widths: 0.0,
                p_missing_decls: 0.30,
                p_hallucinate: 0.50,
                p_unquoted_strings: 0.0,
            },
            Theory::Bags => TheoryFlawRates {
                p_bare_literals: 0.0,
                p_mixed_widths: 0.0,
                p_missing_decls: 0.25,
                p_hallucinate: 0.50,
                p_unquoted_strings: 0.0,
            },
            Theory::Arrays => TheoryFlawRates {
                p_bare_literals: 0.0,
                p_mixed_widths: 0.0,
                p_missing_decls: 0.20,
                p_hallucinate: 0.30,
                p_unquoted_strings: 0.0,
            },
            Theory::Ints => TheoryFlawRates {
                p_bare_literals: 0.0,
                p_mixed_widths: 0.0,
                p_missing_decls: 0.15,
                p_hallucinate: 0.20,
                p_unquoted_strings: 0.0,
            },
            Theory::Reals => TheoryFlawRates {
                p_bare_literals: 0.0,
                p_mixed_widths: 0.0,
                p_missing_decls: 0.05,
                p_hallucinate: 0.12,
                p_unquoted_strings: 0.0,
            },
            Theory::Core | Theory::Uf => TheoryFlawRates {
                p_bare_literals: 0.0,
                p_mixed_widths: 0.0,
                p_missing_decls: 0.10,
                p_hallucinate: 0.15,
                p_unquoted_strings: 0.0,
            },
        };
        TheoryFlawRates {
            p_hallucinate: (base.p_hallucinate * self.hallucination_scale).min(0.98),
            ..base
        }
    }
}

/// Per-theory probabilities that a freshly synthesized generator carries
/// each flaw class.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TheoryFlawRates {
    /// Emits finite-field literals without `(as ... )` annotation.
    pub p_bare_literals: f64,
    /// Mixes bit-vector widths / field moduli within a term.
    pub p_mixed_widths: f64,
    /// Forgets to declare some generated variables.
    pub p_missing_decls: f64,
    /// Grammar contains a hallucinated operator.
    pub p_hallucinate: f64,
    /// Emits string literals without quotes.
    pub p_unquoted_strings: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_distinct_but_close() {
        let g = LlmProfile::gpt4();
        let m = LlmProfile::gemini();
        let c = LlmProfile::claude();
        assert_ne!(g.seed, m.seed);
        assert_ne!(m.seed, c.seed);
        for p in [&g, &m, &c] {
            assert!((0.5..=1.0).contains(&p.repair_effectiveness));
            assert!(p.p_drop_signature < 0.05);
        }
    }

    #[test]
    fn finite_fields_are_hardest() {
        let p = LlmProfile::gpt4();
        let ff = p.theory_flaw_rates(Theory::FiniteFields);
        let re = p.theory_flaw_rates(Theory::Reals);
        assert!(ff.p_bare_literals > 0.9);
        assert!(re.p_hallucinate < 0.15);
        assert!(ff.p_hallucinate > re.p_hallucinate);
    }
}
