//! The asynchronous solver backend: [`AsyncSmtSolver`] plus the adapter
//! that runs the in-process engines as lanes of the same interface.
//!
//! A shard worker in `o4a-exec` drives every solver lane through one
//! loop: cases go into an in-flight pool of [`AsyncSmtSolver`] futures
//! and completions are re-sequenced by case index before campaign state
//! sees them. External solvers over pipes ([`crate::PipeSolver`]) answer
//! with latency, so one worker keeps many of their queries in flight:
//!
//! * [`AsyncSmtSolver::check_async`] takes `&self` — one solver instance
//!   accepts many overlapped queries (interior mutability inside the
//!   lane; the executor is single-threaded, so a `RefCell` suffices).
//! * Every completed check carries its **per-query coverage delta** next
//!   to the response. Out-of-order completions can then be re-sequenced
//!   and merged in case order, keeping overlapped campaigns bit-identical
//!   to serial ones (accumulating inside the solver, as the sync trait
//!   does, would leak later queries' coverage into earlier snapshots).
//! * [`InProcessSolver`] wraps any [`SmtSolver`](crate::SmtSolver) as a
//!   lane whose checks compute synchronously and resolve on first poll.
//!   The engines are CPU-bound on the worker's thread, so overlapping
//!   them buys nothing: in-process lanes run with a window of one.

use crate::response::SolverId;
use crate::{CoverageMap, SmtSolver, SolverResponse};
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;

/// The completed result of one asynchronous check: the response plus the
/// coverage this single query contributed.
#[derive(Clone, Debug)]
pub struct AsyncCheck {
    /// The solver's answer, identical to what the sync path returns.
    pub response: SolverResponse,
    /// Coverage hit by this query alone (a delta, not a cumulative map).
    pub coverage: CoverageMap,
}

/// A boxed in-flight check.
pub type CheckFuture<'a> = Pin<Box<dyn Future<Output = AsyncCheck> + 'a>>;

/// The asynchronous counterpart of [`SmtSolver`](crate::SmtSolver):
/// submission returns a future, and many futures against one solver may
/// be in flight at once.
pub trait AsyncSmtSolver {
    /// Which solver this is.
    fn id(&self) -> SolverId;
    /// Submits a script; the returned future resolves to the response and
    /// the query's coverage delta.
    fn check_async(&self, text: String) -> CheckFuture<'_>;
}

/// An in-process [`SmtSolver`] as an [`AsyncSmtSolver`] lane.
///
/// Each check resets the solver's coverage, runs the check, records its
/// wall time in the `core.check_micros` histogram, and resolves on first
/// poll with the query's coverage delta — exactly what the serial
/// stepper's `execute_case` does per solver.
pub struct InProcessSolver {
    inner: RefCell<Box<dyn SmtSolver>>,
    id: SolverId,
}

impl InProcessSolver {
    /// Wraps `inner` as a lane.
    pub fn new(inner: Box<dyn SmtSolver>) -> InProcessSolver {
        InProcessSolver {
            id: inner.id(),
            inner: RefCell::new(inner),
        }
    }
}

impl AsyncSmtSolver for InProcessSolver {
    fn id(&self) -> SolverId {
        self.id
    }

    fn check_async(&self, text: String) -> CheckFuture<'_> {
        let mut inner = self.inner.borrow_mut();
        inner.reset_coverage();
        let timer = o4a_obs::metrics::start_timer();
        let response = inner.check(&text);
        o4a_obs::metrics::record_elapsed("core.check_micros", timer);
        let coverage = inner.coverage().clone();
        Box::pin(std::future::ready(AsyncCheck { response, coverage }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solver_at, Outcome, TRUNK_COMMIT};
    use o4a_executor::{block_on, InFlightPool, Sequencer};

    const SAT: &str = "(declare-const x Int)(assert (= (+ x 1) 2))(check-sat)";
    const UNSAT: &str = "(declare-const p Bool)(assert (and p (not p)))(check-sat)";

    #[test]
    fn async_response_matches_sync_response() {
        for id in SolverId::ALL {
            for text in [SAT, UNSAT] {
                let mut sync = solver_at(id, TRUNK_COMMIT);
                let expected = sync.check(text);
                let solver = InProcessSolver::new(solver_at(id, TRUNK_COMMIT));
                let got = block_on(solver.check_async(text.to_string()));
                assert_eq!(got.response, expected, "{id} diverged on {text}");
            }
        }
    }

    #[test]
    fn overlapped_checks_share_one_solver() {
        let solver = InProcessSolver::new(solver_at(SolverId::OxiZ, TRUNK_COMMIT));
        let texts = [SAT, UNSAT, SAT, UNSAT];
        let mut pool = InFlightPool::new(texts.len());
        for (i, text) in texts.iter().enumerate() {
            pool.submit(i as u64, solver.check_async(text.to_string()));
        }
        let mut seq = Sequencer::new();
        while !pool.is_empty() {
            for (index, check) in pool.wait_any() {
                seq.push(index, check);
            }
        }
        let mut outcomes = Vec::new();
        while let Some((_, check)) = seq.pop() {
            outcomes.push(check.response.outcome);
        }
        assert_eq!(
            outcomes,
            vec![Outcome::Sat, Outcome::Unsat, Outcome::Sat, Outcome::Unsat]
        );
    }

    #[test]
    fn coverage_deltas_union_to_sync_cumulative() {
        let texts = [SAT, UNSAT, "(assert true)(check-sat)"];
        let mut sync = solver_at(SolverId::Cervo, TRUNK_COMMIT);
        for t in texts {
            sync.check(t);
        }
        let solver = InProcessSolver::new(solver_at(SolverId::Cervo, TRUNK_COMMIT));
        let mut delta_union = CoverageMap::new();
        for t in texts {
            let check = block_on(solver.check_async(t.to_string()));
            delta_union.merge(&check.coverage);
        }
        let u = crate::coverage::universe(SolverId::Cervo);
        assert_eq!(delta_union.export(&u), sync.coverage().export(&u));
    }
}
