//! # o4a-executor
//!
//! A tokio-free, offline, single-threaded poll-loop executor — just enough
//! async machinery for one campaign worker to keep `K` solver queries in
//! flight at once. Everything is built from `core::future` primitives:
//!
//! * a **hand-rolled waker** ([`WakeFlag`]) backed by one atomic flag per
//!   task — no reactor, no timers, no I/O driver;
//! * [`block_on`], the smallest possible future driver (and a deadlock
//!   detector: on a single thread with no external event sources, a
//!   `Pending` future that scheduled no wake can never progress);
//! * [`InFlightPool`], a **bounded in-flight queue** of futures polled
//!   round-robin in submission order. Each full poll round is one step of
//!   the pool's clock, so completion order is a function of how many
//!   rounds each task stays pending;
//! * [`Sequencer`], the re-ordering buffer that turns out-of-order
//!   completions back into index order — the determinism keystone of the
//!   shard loop in `o4a-exec`;
//! * [`FdReactor`], the `poll(2)`-based readiness reactor that extends the
//!   same machinery to **external solver processes**: futures blocked on a
//!   child's stdout register their fd, and the pool's idle hook
//!   ([`InFlightPool::wait_any_with`]) blocks in `poll(2)` — no busy-wait,
//!   no timer thread — until a reply arrives or a per-query deadline
//!   passes.
//!
//! ```
//! use o4a_executor::{InFlightPool, Sequencer};
//!
//! // Three index-tagged tasks, each ready on its first poll (the way an
//! // in-process solver check resolves)...
//! let mut pool: InFlightPool<u64> = InFlightPool::new(3);
//! for i in 0..3u64 {
//!     pool.submit(i, async move { i * 100 });
//! }
//! let done = pool.wait_any();
//! assert_eq!(done.len(), 3, "all three resolve in one round");
//! // ...and in whatever order completions arrive, the sequencer
//! // releases them in dense index order.
//! let mut seq = Sequencer::new();
//! for (index, value) in done.into_iter().rev() {
//!     seq.push(index, value);
//!     if index == 2 {
//!         assert_eq!(seq.pop(), None, "index 2 waits for 0 and 1");
//!     }
//! }
//! let drained: Vec<(u64, u64)> = std::iter::from_fn(|| seq.pop()).collect();
//! assert_eq!(drained, vec![(0, 0), (1, 100), (2, 200)]);
//! ```

#![warn(missing_docs)]

#[cfg(test)]
mod future;
mod pool;
mod reactor;
mod waker;

pub use pool::{InFlightPool, Sequencer};
pub use reactor::{
    flush_outbuf, read_available, readable, set_nonblocking, writable, write_available, FdReactor,
    FdReady, Interest,
};
pub use waker::{block_on, block_on_with, WakeFlag};
