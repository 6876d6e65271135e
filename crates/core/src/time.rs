//! Run-local clocks and precise pacing.
//!
//! All timestamps in a run are nanoseconds since a run-local epoch, so that real-time and
//! simulated runs share the same record format.  The open-loop traffic shaper needs to
//! release requests at microsecond-precise instants even when the OS sleep granularity is
//! coarser, so [`RunClock::sleep_until_ns`] sleeps coarsely and then yields the CPU until
//! the deadline: the pacer may share a core with the server it measures, and a pacer
//! that held the CPU while waiting would keep the worker it just woke from running and
//! inflate the very latencies it reports.

use crate::report::LatencyStats;
use crate::request::Request;
use std::time::{Duration, Instant};
use tailbench_histogram::LatencySummary;

/// A monotonic clock anchored at a run-local epoch.
#[derive(Debug, Clone, Copy)]
pub struct RunClock {
    epoch: Instant,
}

impl Default for RunClock {
    fn default() -> Self {
        Self::new()
    }
}

impl RunClock {
    /// Creates a clock whose epoch is "now".
    #[must_use]
    pub fn new() -> Self {
        RunClock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The epoch instant (for interop with APIs that want an [`Instant`]).
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Waits until `target_ns` nanoseconds past the epoch: sleeps coarsely while the
    /// deadline is far, then yields the CPU on every check of the final approach, so any
    /// thread that is runnable meanwhile (a worker the caller just woke, a server thread
    /// it shares a core with) runs before the deadline instead of after it.  Returns the
    /// actual time reached, which is never before `target_ns`.
    pub fn sleep_until_ns(&self, target_ns: u64) -> u64 {
        // `thread::sleep` oversleeps by tens of microseconds, so it only covers the wait
        // up to 100 µs before the deadline; yielding covers the rest.  A yield costs one
        // syscall per check, small next to the hand-offs it lets through.
        const APPROACH_NS: u64 = 100_000;
        loop {
            let now = self.now_ns();
            if now >= target_ns {
                return now;
            }
            let remaining = target_ns - now;
            if remaining > APPROACH_NS {
                std::thread::sleep(Duration::from_nanos(remaining - APPROACH_NS));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Accumulates per-request pacing error — the gap between a request's *scheduled*
/// open-loop issue time and the instant the pacing thread actually released it.
///
/// An open-loop harness that silently falls behind its schedule compresses bursts and
/// under-reports queuing (the "tell-tale" harness pitfall): the pacing-error
/// distribution makes that skew observable instead.  Each pacing thread owns its own
/// recorder (no cross-thread synchronization on the issue path); recorders merge at
/// run end and the result is reported as the run's `pacing` summary.
#[derive(Debug, Clone)]
pub struct PacingRecorder {
    errors: LatencySummary,
}

impl Default for PacingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl PacingRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        PacingRecorder {
            errors: LatencySummary::new(),
        }
    }

    /// Records one issue: `actual_ns - scheduled_ns` (clamped at zero; the sleeper
    /// never releases early).
    pub fn record(&mut self, scheduled_ns: u64, actual_ns: u64) {
        self.errors.record(actual_ns.saturating_sub(scheduled_ns));
    }

    /// Merges another recorder (e.g. a per-connection pacing thread's) into this one.
    pub fn merge(&mut self, other: &PacingRecorder) {
        self.errors.merge(&other.errors);
    }

    /// Number of issues recorded.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.errors.len()
    }

    /// Returns `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.errors.len() == 0
    }

    /// The pacing-error distribution as report statistics.
    #[must_use]
    pub fn stats(&self) -> LatencyStats {
        LatencyStats::from_summary(&self.errors)
    }
}

/// The open-loop pacer: hands each of `requests` to `issue` at its scheduled time on
/// `clock`, stamped with the time it actually left (so pacing jitter is charged to the
/// harness, not hidden), and records the pacing error.  Stops at the first request
/// scheduled or released past `max_ns` (an arrival past the cap is not waited for) or
/// when `issue` returns `false`.
pub(crate) fn pace(
    requests: Vec<Request>,
    clock: RunClock,
    max_ns: u64,
    mut issue: impl FnMut(Request) -> bool,
) -> PacingRecorder {
    let mut pacing = PacingRecorder::new();
    for mut request in requests {
        let scheduled_ns = request.issued_ns;
        if scheduled_ns > max_ns {
            break;
        }
        let now = clock.sleep_until_ns(scheduled_ns);
        if now > max_ns {
            break;
        }
        pacing.record(scheduled_ns, now);
        request.issued_ns = now;
        if !issue(request) {
            break;
        }
    }
    pacing
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let clock = RunClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn sleep_until_reaches_target() {
        let clock = RunClock::new();
        let target = clock.now_ns() + 2_000_000; // 2 ms
        let reached = clock.sleep_until_ns(target);
        assert!(reached >= target);
        // Should not overshoot by tens of milliseconds on an idle machine, but be very
        // lenient to avoid flakiness under CI load.
        assert!(reached < target + 200_000_000);
    }

    #[test]
    fn sleep_until_past_deadline_returns_immediately() {
        let clock = RunClock::new();
        std::thread::sleep(Duration::from_millis(1));
        let reached = clock.sleep_until_ns(0);
        assert!(reached > 0);
    }

    #[test]
    fn final_approach_lets_a_woken_thread_run_before_the_deadline() {
        // The pacer wakes a helper and then waits out a deadline that lies entirely
        // inside the final approach.  On a core shared with the helper (`taskset -c 0
        // chrt -b 0`), a pacer that holds the CPU for the whole wait lets the helper
        // run only afterwards, on every round.
        const ROUNDS: usize = 20;
        let clock = RunClock::new();
        let (wake_tx, wake_rx) = std::sync::mpsc::channel::<()>();
        let (reply_tx, reply_rx) = std::sync::mpsc::channel::<u64>();
        let helper = std::thread::spawn(move || {
            while wake_rx.recv().is_ok() {
                if reply_tx.send(clock.now_ns()).is_err() {
                    break;
                }
            }
        });
        let mut ran_first = 0;
        for _ in 0..ROUNDS {
            wake_tx.send(()).unwrap();
            let reached = clock.sleep_until_ns(clock.now_ns() + 80_000);
            let helper_ran_ns = reply_rx.recv().unwrap();
            if helper_ran_ns < reached {
                ran_first += 1;
            }
        }
        drop(wake_tx);
        helper.join().unwrap();
        assert!(
            ran_first > 0,
            "the woken helper never ran during the wait in {ROUNDS} rounds"
        );
    }

    #[test]
    fn pacing_recorder_tracks_issue_error_and_merges() {
        let mut a = PacingRecorder::new();
        a.record(1_000, 1_500); // 500 ns late
        a.record(2_000, 2_000); // on time
        a.record(3_000, 2_900); // "early" clamps to zero
        assert_eq!(a.len(), 3);
        let stats = a.stats();
        assert_eq!(stats.max_ns, 500);
        assert_eq!(stats.min_ns, 0);

        let mut b = PacingRecorder::default();
        assert!(b.is_empty());
        b.record(0, 10_000);
        b.merge(&a);
        assert_eq!(b.len(), 4);
        assert_eq!(b.stats().max_ns, 10_000);
    }
}
