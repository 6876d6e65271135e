//! Requests, responses and per-request latency accounting.
//!
//! The TailBench harness measures, for every request, the *queuing time* (time spent in
//! the request queue), the *service time* (time an application thread spends processing
//! it) and the *sojourn time* (end-to-end latency as seen by the client, which adds any
//! client↔server transport overheads).  The types in this module carry those timestamps
//! through the harness.

/// Identifier of a request within one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// A work-characterization record emitted by an application for one request.
///
/// Applications fill this in while (or right after) processing a request; the
/// [`CostModel`](crate::app::CostModel) implementations in `tailbench-simarch` translate
/// it into simulated service time.  All fields are best-effort estimates — the point is
/// to capture relative differences between applications and requests, not exact counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkProfile {
    /// Approximate dynamic instruction count.
    pub instructions: u64,
    /// Approximate number of memory reads (loads) performed.
    pub mem_reads: u64,
    /// Approximate number of memory writes (stores) performed.
    pub mem_writes: u64,
    /// Approximate data footprint touched by the request, in bytes.  Determines how much
    /// of the cache hierarchy the request's accesses fit in.
    pub footprint_bytes: u64,
    /// Fraction of accesses with high temporal/spatial locality, in `[0, 1]`.
    pub locality: f64,
    /// Fraction of the request's work spent inside global critical sections, in `[0, 1]`.
    /// Drives the synchronization-overhead term of the multithreaded cost model (the
    /// silo case study of paper §VII).
    pub critical_fraction: f64,
}

impl WorkProfile {
    /// Total memory accesses (reads + writes).
    #[must_use]
    pub fn mem_accesses(&self) -> u64 {
        self.mem_reads + self.mem_writes
    }

    /// Merges another profile into this one (summing counts, max-ing fractions weighted
    /// by instruction count).
    #[must_use]
    pub fn combined(&self, other: &WorkProfile) -> WorkProfile {
        let total_instr = self.instructions + other.instructions;
        let wavg = |a: f64, b: f64| {
            if total_instr == 0 {
                0.0
            } else {
                (a * self.instructions as f64 + b * other.instructions as f64) / total_instr as f64
            }
        };
        WorkProfile {
            instructions: total_instr,
            mem_reads: self.mem_reads + other.mem_reads,
            mem_writes: self.mem_writes + other.mem_writes,
            footprint_bytes: self.footprint_bytes.max(other.footprint_bytes),
            locality: wavg(self.locality, other.locality),
            critical_fraction: wavg(self.critical_fraction, other.critical_fraction),
        }
    }
}

/// A request travelling through the harness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Request {
    /// Unique identifier within the run.
    pub id: RequestId,
    /// Application-specific payload (each application defines its own encoding).
    pub payload: Vec<u8>,
    /// Time the client issued the request, in nanoseconds since the run epoch.
    pub issued_ns: u64,
}

/// The application's answer to a request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Application-specific payload.
    pub payload: Vec<u8>,
    /// Work characterization of the processing that produced this response.
    pub work: WorkProfile,
}

impl Response {
    /// Creates a response with an empty work profile (for applications that do not
    /// participate in simulated runs).
    #[must_use]
    pub fn new(payload: Vec<u8>) -> Self {
        Response {
            payload,
            work: WorkProfile::default(),
        }
    }

    /// Creates a response with an explicit work profile.
    #[must_use]
    pub fn with_work(payload: Vec<u8>, work: WorkProfile) -> Self {
        Response { payload, work }
    }
}

/// Complete latency record of one finished request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Which request this record describes.
    pub id: RequestId,
    /// Client issue time (ns since the run epoch).
    pub issued_ns: u64,
    /// Time the request entered the server's request queue.
    pub enqueued_ns: u64,
    /// Time an application worker started processing it.
    pub started_ns: u64,
    /// Time processing finished.
    pub completed_ns: u64,
    /// Time the response reached the client (equals `completed_ns` in the integrated
    /// configuration; later in the loopback/networked configurations).
    pub client_received_ns: u64,
}

impl RequestRecord {
    /// Queuing time: waiting in the request queue before a worker picked it up.
    #[must_use]
    pub fn queue_ns(&self) -> u64 {
        self.started_ns.saturating_sub(self.enqueued_ns)
    }

    /// Service time: processing time on an application worker.
    #[must_use]
    pub fn service_ns(&self) -> u64 {
        self.completed_ns.saturating_sub(self.started_ns)
    }

    /// Sojourn time: end-to-end latency seen by the client, including queuing and any
    /// transport overhead.
    #[must_use]
    pub fn sojourn_ns(&self) -> u64 {
        self.client_received_ns.saturating_sub(self.issued_ns)
    }

    /// Transport overhead not accounted to queueing or service (network / protocol /
    /// harness costs).
    #[must_use]
    pub fn overhead_ns(&self) -> u64 {
        self.sojourn_ns()
            .saturating_sub(self.queue_ns())
            .saturating_sub(self.service_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RequestRecord {
        RequestRecord {
            id: RequestId(7),
            issued_ns: 1_000,
            enqueued_ns: 1_200,
            started_ns: 1_500,
            completed_ns: 2_500,
            client_received_ns: 2_800,
        }
    }

    #[test]
    fn latency_breakdown_arithmetic() {
        let r = record();
        assert_eq!(r.queue_ns(), 300);
        assert_eq!(r.service_ns(), 1_000);
        assert_eq!(r.sojourn_ns(), 1_800);
        assert_eq!(r.overhead_ns(), 500);
    }

    #[test]
    fn out_of_order_timestamps_saturate_to_zero() {
        let r = RequestRecord {
            id: RequestId(1),
            issued_ns: 100,
            enqueued_ns: 90,
            started_ns: 80,
            completed_ns: 70,
            client_received_ns: 60,
        };
        assert_eq!(r.queue_ns(), 0);
        assert_eq!(r.service_ns(), 0);
        assert_eq!(r.sojourn_ns(), 0);
    }

    #[test]
    fn work_profile_combination_weights_by_instructions() {
        let a = WorkProfile {
            instructions: 100,
            mem_reads: 10,
            mem_writes: 5,
            footprint_bytes: 1_000,
            locality: 1.0,
            critical_fraction: 0.0,
        };
        let b = WorkProfile {
            instructions: 300,
            mem_reads: 30,
            mem_writes: 15,
            footprint_bytes: 4_000,
            locality: 0.0,
            critical_fraction: 0.4,
        };
        let c = a.combined(&b);
        assert_eq!(c.instructions, 400);
        assert_eq!(c.mem_reads, 40);
        assert_eq!(c.mem_accesses(), 60);
        assert_eq!(c.footprint_bytes, 4_000);
        assert!((c.locality - 0.25).abs() < 1e-9);
        assert!((c.critical_fraction - 0.3).abs() < 1e-9);
    }

    #[test]
    fn combining_with_empty_profile_is_identity_on_counts() {
        let a = WorkProfile {
            instructions: 50,
            mem_reads: 5,
            mem_writes: 1,
            footprint_bytes: 64,
            locality: 0.5,
            critical_fraction: 0.1,
        };
        let c = a.combined(&WorkProfile::default());
        assert_eq!(c.instructions, 50);
        assert_eq!(c.mem_reads, 5);
        assert!((c.locality - 0.5).abs() < 1e-9);
    }
}
