//! Poll-round sleeps for the executor's own tests.
//!
//! The executor has no clock; its unit of time is the *poll round*. A
//! [`Ticks`] future "sleeps" by surviving `n` polls, waking itself each
//! time so the poll loop keeps scheduling it. Under
//! [`crate::InFlightPool`] — which polls every runnable task exactly once
//! per round — `ticks(n)` completes on the pool's `n`-th round after
//! submission, which is how the pool tests stage out-of-order completions
//! deterministically.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// A future that completes after being polled `n` more times.
#[derive(Debug)]
pub(crate) struct Ticks {
    remaining: u64,
}

/// Sleeps for `n` poll rounds of virtual time (`ticks(0)` is ready
/// immediately).
pub(crate) fn ticks(n: u64) -> Ticks {
    Ticks { remaining: n }
}

/// Yields once: reschedules the task and completes on the next poll.
pub(crate) fn yield_now() -> Ticks {
    ticks(1)
}

impl Future for Ticks {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.remaining == 0 {
            Poll::Ready(())
        } else {
            self.remaining -= 1;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;

    #[test]
    fn zero_ticks_is_immediate() {
        block_on(ticks(0));
    }

    #[test]
    fn ticks_counts_polls() {
        struct Probe {
            inner: Ticks,
            polls: u64,
        }
        impl Future for Probe {
            type Output = u64;
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u64> {
                let this = self.get_mut();
                this.polls += 1;
                match Pin::new(&mut this.inner).poll(cx) {
                    Poll::Ready(()) => Poll::Ready(this.polls),
                    Poll::Pending => Poll::Pending,
                }
            }
        }
        let polls = block_on(Probe {
            inner: ticks(5),
            polls: 0,
        });
        assert_eq!(polls, 6, "ticks(5) completes on the 6th poll");
    }
}
