//! The traffic shaper.
//!
//! The traffic shaper controls the timing characteristics of the request stream (paper
//! §IV, Fig. 1).  TailBench uses an *open-loop* design: requests are released at times
//! drawn from a Poisson process with the configured rate, independently of whether
//! earlier responses have arrived.  A *closed-loop* mode is also provided so the
//! coordinated-omission pitfall of conventional load testers (§II-B) can be reproduced
//! and quantified — it must never be used for reported results.

use crate::request::{Request, RequestId};
use std::sync::Arc;
use tailbench_workloads::interarrival::InterarrivalProcess;
use tailbench_workloads::rng::SuiteRng;

/// A precompiled open-loop arrival trace: explicit issue timestamps, typically produced
/// by the phase-trace compiler in `tailbench-scenario` (bursts, ramps, diurnal waves).
///
/// The timestamps are nanoseconds since the run epoch and must be non-decreasing; the
/// runners issue exactly these arrivals, so a trace run is open-loop by construction.
#[derive(Debug, Clone)]
pub struct LoadTrace {
    /// Arrival timestamps in nanoseconds since the run epoch, non-decreasing.
    pub times_ns: Vec<u64>,
    /// Mean offered rate over the trace, in queries per second (reported as the run's
    /// offered load).
    pub mean_qps: f64,
}

impl LoadTrace {
    /// Builds a trace from explicit timestamps, deriving the mean rate from the
    /// *actual arrival span* (`last - first`): `n` arrivals define `n - 1` interarrival
    /// gaps, so the mean offered rate is `(n - 1) / span`.  The old formula,
    /// `n / last`, implicitly anchored every trace at the epoch — a trace starting at
    /// t = 10 s under-reported its offered load by the idle lead-in, and a
    /// single-arrival trace at the epoch degenerated to 0 QPS.
    ///
    /// Degenerate cases: an empty trace offers 0 QPS; a single arrival (no observable
    /// gap) and an instantaneous burst (all timestamps equal) fall back to anchoring
    /// at the epoch — `n` arrivals over `[0, last]` — and report 0 QPS only when even
    /// that window is empty (everything at t = 0).
    ///
    /// # Panics
    ///
    /// Panics if the timestamps are not non-decreasing.
    #[must_use]
    pub fn from_times(times_ns: Vec<u64>) -> Self {
        assert!(
            times_ns.windows(2).all(|w| w[0] <= w[1]),
            "trace timestamps must be non-decreasing"
        );
        let mean_qps = match times_ns.as_slice() {
            [] => 0.0,
            [.., last] => {
                let first = times_ns[0];
                let span_ns = last - first;
                if times_ns.len() >= 2 && span_ns > 0 {
                    (times_ns.len() - 1) as f64 * 1e9 / span_ns as f64
                } else if *last > 0 {
                    times_ns.len() as f64 * 1e9 / *last as f64
                } else {
                    0.0
                }
            }
        };
        LoadTrace { times_ns, mean_qps }
    }

    /// Number of arrivals in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times_ns.len()
    }

    /// Returns `true` if the trace holds no arrivals.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times_ns.is_empty()
    }
}

/// How request issue times are generated.
#[derive(Debug, Clone)]
pub enum LoadMode {
    /// Open-loop arrivals (the TailBench methodology): requests are issued on a schedule
    /// independent of response times.
    Open(InterarrivalProcess),
    /// Open-loop arrivals following a precompiled trace of explicit timestamps (the
    /// scenario engine's phased load traces).  Shares the open-loop property of
    /// [`LoadMode::Open`]; only the schedule source differs.
    Trace(Arc<LoadTrace>),
    /// Closed-loop arrivals: one client issues each request the think time after every
    /// leg of its last one was answered (or has no copy left to answer).  Integrated and
    /// simulated runs only, to show the coordinated-omission error, never for results.
    Closed {
        /// Think time inserted between receiving a response and issuing the next
        /// request, in nanoseconds.
        think_ns: u64,
    },
}

impl LoadMode {
    /// Open-loop Poisson arrivals at `qps` queries per second.
    #[must_use]
    pub fn open_poisson(qps: f64) -> Self {
        LoadMode::Open(InterarrivalProcess::poisson(qps))
    }

    /// Open-loop arrivals following the given precompiled trace.
    #[must_use]
    pub fn trace(trace: LoadTrace) -> Self {
        LoadMode::Trace(Arc::new(trace))
    }

    /// Returns the configured offered load in QPS, if the mode defines one (closed-loop
    /// load depends on response times, so it has no fixed offered rate).
    #[must_use]
    pub fn offered_qps(&self) -> Option<f64> {
        match self {
            LoadMode::Open(p) => Some(p.qps()),
            LoadMode::Trace(t) => Some(t.mean_qps),
            LoadMode::Closed { .. } => None,
        }
    }

    /// Returns `true` for open-loop modes (Poisson and trace schedules).
    #[must_use]
    pub fn is_open(&self) -> bool {
        matches!(self, LoadMode::Open(_) | LoadMode::Trace(_))
    }

    /// Produces the issue schedule for an open-loop run: `count` non-decreasing arrival
    /// timestamps (ns since the run epoch).  Returns `None` for closed-loop modes, whose
    /// issue times depend on response times.
    ///
    /// Poisson schedules draw their gaps from `rng`; trace schedules are already
    /// compiled and consume no randomness.  A trace shorter than `count` yields its full
    /// length (the scenario engine sizes the run from the trace, so the paths agree).
    #[must_use]
    pub fn schedule(&self, rng: &mut SuiteRng, count: usize) -> Option<Vec<u64>> {
        self.arrival_times(rng, count).map(Iterator::collect)
    }

    /// The schedule of [`LoadMode::schedule`], drawn lazily: each timestamp is computed
    /// when the iterator reaches it.  Returns `None` for closed-loop modes.
    fn arrival_times<'a>(
        &'a self,
        rng: &'a mut SuiteRng,
        count: usize,
    ) -> Option<ArrivalTimes<'a>> {
        match self {
            LoadMode::Open(process) => Some(ArrivalTimes {
                left: count,
                source: TimeSource::Gaps { process, rng, t: 0 },
            }),
            LoadMode::Trace(trace) => Some(ArrivalTimes {
                left: count.min(trace.len()),
                source: TimeSource::Trace(trace.times_ns.iter()),
            }),
            LoadMode::Closed { .. } => None,
        }
    }

    /// The request stream, drawn lazily: request `i` carries id `first_id + i`, the
    /// `i`-th timestamp of [`LoadMode::schedule`] and the `i`-th payload of
    /// `next_payload`.  The discrete-event simulator consumes it as its virtual clock
    /// advances, so only requests in flight are held in memory.  A closed loop's
    /// requests carry no timestamp (0): its client stamps each as it issues it.
    pub fn arrivals<'a, F>(
        &'a self,
        rng: &'a mut SuiteRng,
        count: usize,
        first_id: u64,
        next_payload: F,
    ) -> Arrivals<ArrivalTimes<'a>, F>
    where
        F: FnMut() -> Vec<u8>,
    {
        let unstamped = ArrivalTimes {
            left: count,
            source: TimeSource::Unstamped,
        };
        let times = self.arrival_times(rng, count).unwrap_or(unstamped);
        Arrivals::new(times, first_id, next_payload)
    }
}

/// The issue timestamps of an open-loop schedule, drawn one at a time: Poisson or
/// deterministic gaps from the seeded rng, or a compiled trace cut to the run's length.
#[derive(Debug)]
pub struct ArrivalTimes<'a> {
    source: TimeSource<'a>,
    /// Timestamps still to yield.
    left: usize,
}

#[derive(Debug)]
enum TimeSource<'a> {
    /// Interarrival gaps drawn from `process`, accumulated from the epoch at `t`.
    Gaps {
        process: &'a InterarrivalProcess,
        rng: &'a mut SuiteRng,
        t: u64,
    },
    /// A precompiled trace's timestamps.
    Trace(std::slice::Iter<'a, u64>),
    /// None: a closed loop stamps each request as it is issued.
    Unstamped,
}

impl Iterator for ArrivalTimes<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        self.left = self.left.checked_sub(1)?;
        match &mut self.source {
            TimeSource::Gaps { process, rng, t } => {
                *t = t.saturating_add(process.next_gap_ns(rng));
                Some(*t)
            }
            TimeSource::Trace(times) => times.next().copied(),
            TimeSource::Unstamped => Some(0),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// An open-loop request stream: timestamps from `T` paired with ids counting up from
/// `first_id` and payloads from `F`, produced one request per [`Iterator::next`].
/// The timestamps and the payloads come from independent sources, so drawing them
/// interleaved yields exactly the values of drawing all timestamps first.
#[derive(Debug)]
pub struct Arrivals<T, F> {
    times: T,
    pub(crate) next_id: u64,
    next_payload: F,
}

impl<T, F> Arrivals<T, F>
where
    T: Iterator<Item = u64>,
    F: FnMut() -> Vec<u8>,
{
    /// Pairs `times` with ids from `first_id` and payloads from `next_payload`, which
    /// is called once per request, in id order.
    fn new(times: T, first_id: u64, next_payload: F) -> Self {
        Arrivals {
            times,
            next_id: first_id,
            next_payload,
        }
    }
}

impl<T, F> Iterator for Arrivals<T, F>
where
    T: Iterator<Item = u64>,
    F: FnMut() -> Vec<u8>,
{
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let issued_ns = self.times.next()?;
        let id = RequestId(self.next_id);
        self.next_id += 1;
        Some(Request {
            id,
            payload: (self.next_payload)(),
            issued_ns,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.times.size_hint()
    }
}

/// Produces the issue schedule for an open-loop run: a list of `(issue_ns, request)`
/// pairs with issue times *non-decreasing* from the run epoch.  Ties are legal — a
/// burst trace may schedule several arrivals at the same nanosecond — and every
/// consumer (the pacing loops, [`TrafficShaper::split_round_robin`], the simulators)
/// preserves arrival order among tied timestamps.
///
/// The traffic shaper pre-draws both the interarrival gaps and the request payloads so
/// that the issuing thread does no generation work on the critical path — generation cost
/// must not perturb the measured arrival process.  It collects the same [`Arrivals`]
/// stream the discrete-event simulator draws lazily, where no wall clock runs and
/// generation cost cannot perturb anything.
#[derive(Debug)]
pub struct TrafficShaper {
    schedule: Vec<Request>,
}

impl TrafficShaper {
    /// Builds a schedule of `count` requests using the given arrival process and request
    /// payload source.
    pub fn build<F>(
        process: &InterarrivalProcess,
        rng: &mut SuiteRng,
        count: usize,
        first_id: u64,
        next_payload: F,
    ) -> Self
    where
        F: FnMut() -> Vec<u8>,
    {
        let load = LoadMode::Open(process.clone());
        TrafficShaper {
            schedule: load.arrivals(rng, count, first_id, next_payload).collect(),
        }
    }

    /// Builds a schedule from explicit arrival timestamps (the trace path): request `i`
    /// is issued at `times[i]` with id `first_id + i`.  The payload closure is invoked
    /// once per request in arrival order, so sequenced factories (e.g. the scenario
    /// engine's class multiplexer) see requests in id order.
    pub fn from_times<F>(times: Vec<u64>, first_id: u64, next_payload: F) -> Self
    where
        F: FnMut() -> Vec<u8>,
    {
        TrafficShaper {
            schedule: Arrivals::new(times.into_iter(), first_id, next_payload).collect(),
        }
    }

    /// The scheduled requests, ordered by issue time.
    #[must_use]
    pub fn requests(&self) -> &[Request] {
        &self.schedule
    }

    /// Consumes the shaper, returning the schedule.
    #[must_use]
    pub fn into_requests(self) -> Vec<Request> {
        self.schedule
    }

    /// Consumes the shaper and deals the schedule round-robin across `ways` client
    /// connections.  Each sub-schedule stays ordered by issue time, so per-connection
    /// pacing preserves the global open-loop arrival process.
    #[must_use]
    pub fn split_round_robin(self, ways: usize) -> Vec<Vec<Request>> {
        let ways = ways.max(1);
        let mut split: Vec<Vec<Request>> = (0..ways).map(|_| Vec::new()).collect();
        for (i, request) in self.schedule.into_iter().enumerate() {
            split[i % ways].push(request);
        }
        split
    }

    /// Number of scheduled requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// Returns `true` if the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// The total span of the schedule in nanoseconds (issue time of the last request).
    #[must_use]
    pub fn span_ns(&self) -> u64 {
        self.schedule.last().map_or(0, |r| r.issued_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailbench_workloads::rng::seeded_rng;

    #[test]
    fn open_mode_reports_offered_qps() {
        let m = LoadMode::open_poisson(1234.0);
        assert!(m.is_open());
        assert!((m.offered_qps().unwrap() - 1234.0).abs() < 1e-6);
        let c = LoadMode::Closed { think_ns: 0 };
        assert!(!c.is_open());
        assert!(c.offered_qps().is_none());
    }

    #[test]
    fn shaper_builds_monotonic_schedule_with_unique_ids() {
        let process = InterarrivalProcess::poisson(10_000.0);
        let mut rng = seeded_rng(1, 0);
        let mut n = 0u8;
        let shaper = TrafficShaper::build(&process, &mut rng, 500, 100, || {
            n = n.wrapping_add(1);
            vec![n]
        });
        assert_eq!(shaper.len(), 500);
        assert!(!shaper.is_empty());
        let reqs = shaper.requests();
        assert!(reqs.windows(2).all(|w| w[0].issued_ns <= w[1].issued_ns));
        assert_eq!(reqs[0].id, RequestId(100));
        assert_eq!(reqs[499].id, RequestId(599));
        assert!(shaper.span_ns() > 0);
    }

    #[test]
    fn split_round_robin_preserves_order_and_coverage() {
        let process = InterarrivalProcess::poisson(10_000.0);
        let mut rng = seeded_rng(3, 0);
        let shaper = TrafficShaper::build(&process, &mut rng, 100, 0, Vec::new);
        let split = shaper.split_round_robin(3);
        assert_eq!(split.len(), 3);
        assert_eq!(split.iter().map(Vec::len).sum::<usize>(), 100);
        for (c, sub) in split.iter().enumerate() {
            assert!(sub.windows(2).all(|w| w[0].issued_ns <= w[1].issued_ns));
            for (i, r) in sub.iter().enumerate() {
                assert_eq!(r.id.0 as usize, i * 3 + c);
            }
        }
    }

    #[test]
    fn trace_mode_is_open_and_reports_mean_qps() {
        // 1000 arrivals spanning 1 s => 1000 QPS mean.
        let times: Vec<u64> = (1..=1000u64).map(|i| i * 1_000_000).collect();
        let m = LoadMode::trace(LoadTrace::from_times(times));
        assert!(m.is_open());
        assert!((m.offered_qps().unwrap() - 1000.0).abs() < 1.0);
        let mut rng = seeded_rng(1, 0);
        let sched = m.schedule(&mut rng, 10).unwrap();
        assert_eq!(sched.len(), 10);
        assert_eq!(sched[0], 1_000_000);
        // A trace shorter than the requested count yields its full length.
        let all = m.schedule(&mut rng, 5_000).unwrap();
        assert_eq!(all.len(), 1000);
        assert!(LoadMode::Closed { think_ns: 0 }
            .schedule(&mut rng, 10)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn trace_rejects_time_travel() {
        let _ = LoadTrace::from_times(vec![10, 5]);
    }

    #[test]
    fn offset_trace_reports_the_rate_over_its_arrival_span() {
        // 1000 arrivals at 1 ms spacing, but starting at t = 10 s: the offered load is
        // still 1000 QPS.  The old len/last formula reported ~91 QPS here.
        let times: Vec<u64> = (0..1000u64)
            .map(|i| 10_000_000_000 + i * 1_000_000)
            .collect();
        let trace = LoadTrace::from_times(times);
        assert!(
            (trace.mean_qps - 1000.0).abs() < 2.0,
            "offset trace mean_qps = {}",
            trace.mean_qps
        );
    }

    #[test]
    fn degenerate_traces_report_sane_rates() {
        // Empty: no offered load.
        assert_eq!(LoadTrace::from_times(Vec::new()).mean_qps, 0.0);
        // Single arrival at 1 s: one request over [0, 1 s] = 1 QPS, not 0.
        let single = LoadTrace::from_times(vec![1_000_000_000]);
        assert!((single.mean_qps - 1.0).abs() < 1e-9, "{}", single.mean_qps);
        // Single arrival at the epoch: no observable window at all.
        assert_eq!(LoadTrace::from_times(vec![0]).mean_qps, 0.0);
        // An instantaneous burst (all ties) anchors at the epoch: 5 requests in 1 ms.
        let burst = LoadTrace::from_times(vec![1_000_000; 5]);
        assert!(
            (burst.mean_qps - 5_000.0).abs() < 1e-6,
            "{}",
            burst.mean_qps
        );
    }

    #[test]
    fn tied_timestamps_survive_split_round_robin_in_order() {
        // A burst trace with ties: the shaper accepts non-decreasing (not strictly
        // increasing) schedules, and the round-robin split keeps every sub-schedule
        // non-decreasing with ids preserved in arrival order.
        let times = vec![100, 100, 100, 200, 200, 300, 300, 300, 300];
        let n = times.len();
        let shaper = TrafficShaper::from_times(times, 0, Vec::new);
        assert_eq!(shaper.len(), n);
        assert!(shaper
            .requests()
            .windows(2)
            .all(|w| w[0].issued_ns <= w[1].issued_ns));
        let split = shaper.split_round_robin(2);
        assert_eq!(split.iter().map(Vec::len).sum::<usize>(), n);
        for (c, sub) in split.iter().enumerate() {
            assert!(
                sub.windows(2).all(|w| w[0].issued_ns <= w[1].issued_ns),
                "connection {c} schedule must stay non-decreasing"
            );
            for (i, r) in sub.iter().enumerate() {
                assert_eq!(r.id.0 as usize, i * 2 + c, "ids keep arrival order");
            }
        }
    }

    #[test]
    fn schedule_span_tracks_rate() {
        let mut rng = seeded_rng(2, 0);
        let fast = TrafficShaper::build(
            &InterarrivalProcess::poisson(100_000.0),
            &mut rng,
            1000,
            0,
            Vec::new,
        );
        let mut rng = seeded_rng(2, 0);
        let slow = TrafficShaper::build(
            &InterarrivalProcess::poisson(1_000.0),
            &mut rng,
            1000,
            0,
            Vec::new,
        );
        assert!(slow.span_ns() > fast.span_ns() * 10);
    }

    proptest::proptest! {
        /// The streamed source yields exactly the pre-drawn schedule for Poisson,
        /// deterministic and trace loads — including traces shorter than `count` and
        /// tied timestamps — with the factory called once per request, in id order.
        #[test]
        fn streamed_arrivals_equal_the_pre_drawn_schedule(
            kind in 0u8..3,
            qps in 1u32..2_000_000,
            gaps in proptest::collection::vec(0u64..3, 1..40),
            count in 0usize..60,
            seed in proptest::arbitrary::any::<u64>(),
            first_id in 0u64..1_000,
        ) {
            let load = match kind {
                0 => LoadMode::open_poisson(f64::from(qps)),
                1 => LoadMode::Open(InterarrivalProcess::uniform(f64::from(qps))),
                // Zero gaps make ties.
                _ => LoadMode::trace(LoadTrace::from_times(
                    gaps.iter()
                        .scan(0, |t, gap| {
                            *t += gap * 1_000;
                            Some(*t)
                        })
                        .collect(),
                )),
            };
            let reference: Vec<u64> = match &load {
                LoadMode::Open(process) => process.schedule(&mut seeded_rng(seed, 1), count),
                LoadMode::Trace(trace) => trace.times_ns.iter().copied().take(count).collect(),
                LoadMode::Closed { .. } => Vec::new(),
            };
            let counting = || {
                let mut calls = 0u64;
                move || {
                    calls += 1;
                    calls.to_le_bytes().to_vec()
                }
            };
            let times = load.schedule(&mut seeded_rng(seed, 1), count).unwrap();
            proptest::prop_assert_eq!(&times, &reference);
            let shaped = TrafficShaper::from_times(times, first_id, counting()).into_requests();

            let mut rng = seeded_rng(seed, 1);
            let arrivals = load.arrivals(&mut rng, count, first_id, counting());
            proptest::prop_assert_eq!(arrivals.size_hint(), (reference.len(), Some(reference.len())));
            let streamed: Vec<Request> = arrivals.collect();
            proptest::prop_assert_eq!(&streamed, &shaped);
            for (i, request) in (0u64..).zip(&streamed) {
                proptest::prop_assert_eq!(request.id, RequestId(first_id + i));
                proptest::prop_assert_eq!(&request.payload, &(i + 1).to_le_bytes().to_vec());
                proptest::prop_assert_eq!(request.issued_ns, reference[i as usize]);
            }
        }
    }
}
