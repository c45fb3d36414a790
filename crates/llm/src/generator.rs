//! Synthesized term generators: the runnable artifact the LLM produces.
//!
//! A [`GeneratorProgram`] is the stand-in for the Python generator module
//! GPT-4 writes in the paper: it owns the theory grammar, a set of residual
//! [`Flaw`]s (the mistakes self-correction exists to repair), and a
//! `generate` entry point returning declarations plus one Boolean term —
//! the paper's `generate_<THEORY>_formula_with_decls()` contract.

use crate::sig::SortToken;
use o4a_grammar::{Deriver, Grammar, GrammarError, Hooks};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;

use o4a_smtlib::Theory;

/// A residual defect in a synthesized generator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Flaw {
    /// Bit-vector variables/constants of inconsistent widths (the classic
    /// "CFG cannot express equal-width side conditions" failure).
    MixedBvWidths,
    /// Finite-field operands from different fields.
    MixedFfModuli,
    /// Finite-field literals emitted without `(as ...)` annotation.
    BareFfLiterals,
    /// Some generated variables are not declared.
    MissingDeclarations,
    /// String literals emitted without quotes.
    UnquotedStrings,
}

impl fmt::Display for Flaw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Flaw::MixedBvWidths => "mixed bit-vector widths",
            Flaw::MixedFfModuli => "mixed finite-field moduli",
            Flaw::BareFfLiterals => "unannotated finite-field literals",
            Flaw::MissingDeclarations => "missing variable declarations",
            Flaw::UnquotedStrings => "unquoted string literals",
        };
        f.write_str(s)
    }
}

/// One generated sample: declarations plus a Boolean term, both as SMT-LIB
/// text (the generator contract from the paper's Figure 3b).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RawTerm {
    /// `(declare-const name sort)` lines.
    pub decls: Vec<String>,
    /// The Boolean term.
    pub term: String,
}

impl RawTerm {
    /// Assembles a standalone script: declarations, one assertion,
    /// `(check-sat)`.
    pub fn to_script_text(&self) -> String {
        let cap = self.decls.iter().map(|d| d.len() + 1).sum::<usize>()
            + self.term.len()
            + "(assert )\n(check-sat)".len();
        let mut out = String::with_capacity(cap);
        for d in &self.decls {
            out.push_str(d);
            out.push('\n');
        }
        out.push_str("(assert ");
        out.push_str(&self.term);
        out.push_str(")\n(check-sat)");
        out
    }
}

/// A synthesized, possibly flawed, term generator for one theory.
#[derive(Clone, PartialEq, Debug)]
pub struct GeneratorProgram {
    /// The theory this generator covers.
    pub theory: Theory,
    /// The compiled grammar (parsed from the LLM's BNF).
    pub grammar: Grammar,
    /// Residual implementation flaws.
    pub flaws: BTreeSet<Flaw>,
    /// Revision counter, bumped by each refinement.
    pub revision: u32,
    /// Maximum derivation depth.
    pub max_depth: usize,
}

impl GeneratorProgram {
    /// Creates a generator from a grammar and initial flaw set.
    pub fn new(theory: Theory, grammar: Grammar, flaws: BTreeSet<Flaw>) -> GeneratorProgram {
        GeneratorProgram {
            theory,
            grammar,
            flaws,
            revision: 0,
            max_depth: 6,
        }
    }

    /// True when the generator still carries `flaw`.
    pub fn has_flaw(&self, flaw: Flaw) -> bool {
        self.flaws.contains(&flaw)
    }

    /// Removes a flaw (a successful refinement round).
    pub fn fix_flaw(&mut self, flaw: Flaw) -> bool {
        let removed = self.flaws.remove(&flaw);
        if removed {
            self.revision += 1;
        }
        removed
    }

    /// Removes every grammar production mentioning `op` (how the LLM
    /// repairs hallucinated or wrong-arity operators). Returns the number
    /// of productions dropped.
    pub fn drop_operator(&mut self, op: &str) -> usize {
        let n = self.grammar.remove_productions_with_terminal(op);
        if n > 0 {
            self.revision += 1;
        }
        n
    }

    /// Generates one sample.
    ///
    /// # Errors
    ///
    /// Propagates [`GrammarError`] when the grammar references an unknown
    /// leaf or cannot terminate — both are "the generator script crashed"
    /// events the construction loop must handle.
    pub fn generate(&self, rng: &mut StdRng) -> Result<RawTerm, GrammarError> {
        let state = GenState::new(self, rng.gen());
        let term = {
            let mut hooks = Hooks::new();
            state.install_hooks(&mut hooks);
            let deriver = Deriver::new(&self.grammar).max_depth(self.max_depth);
            deriver.derive(rng, &mut hooks)?
        };
        Ok(RawTerm {
            decls: state.decl_lines(),
            term,
        })
    }

    /// A pseudo-code listing of the generator, in the style of the Python
    /// module the paper's LLM emits (for docs, examples, and debugging).
    pub fn listing(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# generator for the {} theory (revision {})\n",
            self.theory, self.revision
        ));
        out.push_str(&format!(
            "def generate_{}_formula_with_decls():\n",
            self.theory.name().replace('-', "_")
        ));
        out.push_str("    # derive a Boolean term from the summarized CFG\n");
        for line in self.grammar.to_bnf().lines() {
            out.push_str(&format!("    #   {line}\n"));
        }
        if self.flaws.is_empty() {
            out.push_str("    # (no known defects)\n");
        }
        for flaw in &self.flaws {
            out.push_str(&format!("    # FIXME: {flaw}\n"));
        }
        out.push_str("    return declarations, term\n");
        out
    }
}

/// Per-sample generation state: variable pools and declaration recording.
struct GenState<'p> {
    program: &'p GeneratorProgram,
    /// (name, sort text, declared?) per created variable.
    vars: RefCell<Vec<(String, String, bool)>>,
    /// The field modulus for this sample (FF theory).
    field: u64,
    /// The bit-vector width for this sample.
    bv_width: u32,
    /// Extra seed that decorrelates flaw manifestation from derivation.
    salt: u64,
}

impl<'p> GenState<'p> {
    fn new(program: &'p GeneratorProgram, salt: u64) -> GenState<'p> {
        GenState {
            program,
            vars: RefCell::new(Vec::new()),
            field: 3,
            bv_width: 8,
            salt,
        }
    }

    fn decl_lines(&self) -> Vec<String> {
        self.vars
            .borrow()
            .iter()
            .filter(|(_, _, declared)| *declared)
            .map(|(name, sort, _)| format!("(declare-const {name} {sort})"))
            .collect()
    }

    /// Gets or creates a variable of the given sort text. Respects the
    /// `MissingDeclarations` flaw.
    fn var(&self, prefix: &str, sort_text: String, rng: &mut dyn rand::RngCore) -> String {
        let mut vars = self.vars.borrow_mut();
        let existing: Vec<usize> = vars
            .iter()
            .enumerate()
            .filter(|(_, (n, s, _))| n.starts_with(prefix) && *s == sort_text)
            .map(|(i, _)| i)
            .collect();
        let reuse = !existing.is_empty() && rng.next_u32().is_multiple_of(2);
        if reuse {
            let pick = existing[rng.next_u32() as usize % existing.len()];
            return vars[pick].0.clone();
        }
        let name = format!("{prefix}{}", vars.len());
        let declared = if self.program.has_flaw(Flaw::MissingDeclarations) {
            rng.next_u32() % 10 >= 4 // 40% of new vars go undeclared
        } else {
            true
        };
        vars.push((name.clone(), sort_text, declared));
        name
    }

    fn install_hooks<'h>(&'h self, hooks: &mut Hooks<'h>) {
        let p = self.program;
        hooks.register("int-const", move |rng| {
            let v = (rng.next_u32() % 17) as i64 - 8;
            if v < 0 {
                format!("(- {})", -v)
            } else {
                v.to_string()
            }
        });
        hooks.register("int-var", move |rng| self.var("i", "Int".into(), rng));
        hooks.register("real-const", move |rng| {
            let whole = rng.next_u32() % 5;
            let frac = rng.next_u32() % 10;
            format!("{whole}.{frac}")
        });
        hooks.register("real-var", move |rng| self.var("r", "Real".into(), rng));
        hooks.register("bool-var", move |rng| self.var("p", "Bool".into(), rng));
        hooks.register("str-const", move |rng| {
            let n = rng.next_u32() % 3;
            let body: String = (0..n)
                .map(|_| (b'a' + (rng.next_u32() % 3) as u8) as char)
                .collect();
            if p.has_flaw(Flaw::UnquotedStrings) && rng.next_u32() % 10 < 5 && !body.is_empty() {
                body
            } else {
                format!("\"{body}\"")
            }
        });
        hooks.register("str-var", move |rng| self.var("s", "String".into(), rng));
        hooks.register("bv-const", move |rng| {
            let w = self.pick_bv_width(rng);
            let v = rng.next_u64() as u128 & ((1u128 << w) - 1);
            format!("(_ bv{v} {w})")
        });
        hooks.register("bv-var", move |rng| {
            let w = self.pick_bv_width(rng);
            self.var("bv", format!("(_ BitVec {w})"), rng)
        });
        hooks.register("ff-const", move |rng| {
            let m = self.pick_field(rng);
            let k = (rng.next_u32() % (2 * m as u32 + 1)) as i64 - m as i64;
            if p.has_flaw(Flaw::BareFfLiterals) && rng.next_u32() % 10 < 7 {
                format!("ff{k}")
            } else {
                format!("(as ff{k} (_ FiniteField {m}))")
            }
        });
        hooks.register("ff-var", move |rng| {
            let m = self.pick_field(rng);
            self.var("ff", format!("(_ FiniteField {m})"), rng)
        });
        hooks.register("seq-var", move |rng| {
            self.var("sq", "(Seq Int)".into(), rng)
        });
        hooks.register("set-var", move |rng| {
            self.var("st", "(Set Int)".into(), rng)
        });
        hooks.register("bag-var", move |rng| {
            self.var("bg", "(Bag Int)".into(), rng)
        });
        hooks.register("rel-var", move |rng| {
            self.var("rl", "(Relation Int Int)".into(), rng)
        });
        hooks.register("arr-var", move |rng| {
            self.var("ar", "(Array Int Int)".into(), rng)
        });
    }

    fn pick_bv_width(&self, rng: &mut dyn rand::RngCore) -> u32 {
        if self.program.has_flaw(Flaw::MixedBvWidths) {
            [4u32, 8, 16][(rng.next_u32() ^ self.salt as u32) as usize % 3]
        } else {
            self.bv_width
        }
    }

    fn pick_field(&self, rng: &mut dyn rand::RngCore) -> u64 {
        if self.program.has_flaw(Flaw::MixedFfModuli) {
            [3u64, 5, 7][(rng.next_u32() ^ (self.salt >> 32) as u32) as usize % 3]
        } else {
            self.field
        }
    }
}

/// Convenience: a seeded RNG for generator sampling.
pub fn sample_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Maps a sort token to the leaf hook names it relies on (used when
/// building grammars and when validating hook coverage).
pub fn leaf_hooks_for(token: SortToken) -> &'static [&'static str] {
    match token {
        SortToken::Bool => &["bool-var"],
        SortToken::Int | SortToken::Elem => &["int-const", "int-var"],
        SortToken::Real => &["real-const", "real-var"],
        SortToken::Str => &["str-const", "str-var"],
        SortToken::Bv => &["bv-const", "bv-var"],
        SortToken::Ff => &["ff-const", "ff-var"],
        SortToken::Seq => &["seq-var"],
        SortToken::Set => &["set-var"],
        SortToken::Bag => &["bag-var"],
        SortToken::Rel => &["rel-var"],
        SortToken::Array => &["arr-var"],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_smtlib::parse_script;

    fn int_grammar() -> Grammar {
        Grammar::parse_bnf(
            "<BoolTerm> ::= <BoolAtom> | (not <BoolTerm>) | (and <BoolTerm> <BoolTerm>)\n\
             <BoolAtom> ::= (= <IntTerm> <IntTerm>) | (< <IntTerm> <IntTerm>)\n\
             <IntTerm> ::= <int-const> | <int-var> | (+ <IntTerm> <IntTerm>) | (mod <IntTerm> <IntTerm>)",
        )
        .unwrap()
    }

    #[test]
    fn clean_generator_produces_valid_scripts() {
        let g = GeneratorProgram::new(Theory::Ints, int_grammar(), BTreeSet::new());
        let mut rng = sample_rng(11);
        for _ in 0..40 {
            let raw = g.generate(&mut rng).unwrap();
            let script = raw.to_script_text();
            let parsed = parse_script(&script).unwrap_or_else(|e| panic!("{e}: {script}"));
            o4a_smtlib::typeck::check_script(&parsed).unwrap_or_else(|e| panic!("{e}: {script}"));
        }
    }

    #[test]
    fn missing_decl_flaw_breaks_some_scripts() {
        let mut flaws = BTreeSet::new();
        flaws.insert(Flaw::MissingDeclarations);
        let g = GeneratorProgram::new(Theory::Ints, int_grammar(), flaws);
        let mut rng = sample_rng(7);
        let mut bad = 0;
        for _ in 0..60 {
            let raw = g.generate(&mut rng).unwrap();
            let script = raw.to_script_text();
            let ok = parse_script(&script)
                .map_err(|e| e.to_string())
                .and_then(|s| o4a_smtlib::typeck::check_script(&s).map_err(|e| e.to_string()))
                .is_ok();
            if !ok {
                bad += 1;
            }
        }
        assert!(bad > 5, "flaw should break a visible fraction, broke {bad}");
    }

    #[test]
    fn bare_ff_literals_break_parsing_or_typing() {
        let grammar = Grammar::parse_bnf(
            "<BoolTerm> ::= (= <FFTerm> <FFTerm>)\n\
             <FFTerm> ::= <ff-const> | <ff-var> | (ff.add <FFTerm> <FFTerm>)",
        )
        .unwrap();
        let mut flaws = BTreeSet::new();
        flaws.insert(Flaw::BareFfLiterals);
        let g = GeneratorProgram::new(Theory::FiniteFields, grammar, flaws);
        let mut rng = sample_rng(3);
        let mut bad = 0;
        let mut total = 0;
        for _ in 0..40 {
            let raw = g.generate(&mut rng).unwrap();
            total += 1;
            let script = raw.to_script_text();
            let ok = parse_script(&script)
                .map_err(|e| e.to_string())
                .and_then(|s| o4a_smtlib::typeck::check_script(&s).map_err(|e| e.to_string()))
                .is_ok();
            if !ok {
                bad += 1;
            }
        }
        assert!(
            bad * 2 > total,
            "bare literals should break most samples ({bad}/{total})"
        );
    }

    #[test]
    fn fixing_flaws_restores_validity() {
        let grammar = Grammar::parse_bnf(
            "<BoolTerm> ::= (bvult <BVTerm> <BVTerm>)\n\
             <BVTerm> ::= <bv-const> | <bv-var> | (bvadd <BVTerm> <BVTerm>)",
        )
        .unwrap();
        let mut flaws = BTreeSet::new();
        flaws.insert(Flaw::MixedBvWidths);
        let mut g = GeneratorProgram::new(Theory::BitVectors, grammar, flaws);
        assert!(g.fix_flaw(Flaw::MixedBvWidths));
        assert!(!g.fix_flaw(Flaw::MixedBvWidths), "idempotent");
        let mut rng = sample_rng(5);
        for _ in 0..40 {
            let raw = g.generate(&mut rng).unwrap();
            let script = raw.to_script_text();
            let parsed = parse_script(&script).unwrap();
            o4a_smtlib::typeck::check_script(&parsed).unwrap_or_else(|e| panic!("{e}: {script}"));
        }
    }

    #[test]
    fn drop_operator_removes_productions() {
        let grammar = Grammar::parse_bnf(
            "<BoolTerm> ::= (= <IntTerm> <IntTerm>)\n\
             <IntTerm> ::= <int-const> | (int.log <IntTerm>)",
        )
        .unwrap();
        let mut g = GeneratorProgram::new(Theory::Ints, grammar, BTreeSet::new());
        assert_eq!(g.drop_operator("int.log"), 1);
        assert_eq!(g.revision, 1);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = GeneratorProgram::new(Theory::Ints, int_grammar(), BTreeSet::new());
        let a = g.generate(&mut sample_rng(99)).unwrap();
        let b = g.generate(&mut sample_rng(99)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn listing_mentions_flaws() {
        let mut flaws = BTreeSet::new();
        flaws.insert(Flaw::MixedBvWidths);
        let g = GeneratorProgram::new(Theory::BitVectors, int_grammar(), flaws);
        let listing = g.listing();
        assert!(listing.contains("FIXME"));
        assert!(listing.contains("bitvectors"));
    }
}
