//! The application-facing interface of the harness.
//!
//! Every TailBench application plugs into the harness by implementing two traits:
//!
//! * [`ServerApp`] — the server side: given a request payload, produce a response.  The
//!   implementation must be thread-safe because the harness drives it from multiple
//!   worker threads.
//! * [`RequestFactory`] — the client side: produce the request payloads that make up the
//!   workload (e.g. Zipfian search queries or TPC-C transactions).
//!
//! A [`CostModel`] converts per-request [`WorkProfile`](crate::request::WorkProfile)s
//! into simulated service times for the discrete-event simulation runner; the analytic
//! microarchitecture model in `tailbench-simarch` is the primary implementation.

use crate::error::HarnessError;
use crate::request::{Response, WorkProfile};
use std::sync::Arc;
use tailbench_workloads::rng::derive_seed;

/// The server side of a TailBench application.
///
/// Implementations must be cheap to share across worker threads (`Send + Sync`); any
/// internal mutability must be synchronized.  The harness calls [`ServerApp::handle`]
/// once per request.
pub trait ServerApp: Send + Sync {
    /// A short, stable name used in reports (e.g. `"xapian"`).
    fn name(&self) -> &str;

    /// Processes one request payload and returns the response.
    ///
    /// The payload encoding is application-defined; the harness treats it as opaque
    /// bytes, which keeps the harness identical across configurations (the networked
    /// configurations ship the same bytes over TCP).
    fn handle(&self, payload: &[u8]) -> Response;

    /// Optional hook invoked once before the warmup phase (e.g. to pre-touch data
    /// structures). The default does nothing.
    fn prepare(&self) {}
}

/// The client side of a TailBench application: a source of request payloads.
///
/// Factories are per-client-thread state machines; they are `Send` but not required to be
/// `Sync`.  The harness never inspects payloads.
///
/// **Contract.** A payload may depend only on the factory's own state and on how many
/// payloads it has produced before — never on the server, the clock or the responses.
/// The wall-clock runners draw every payload before the run starts; the discrete-event
/// simulator draws each one as its virtual clock reaches the request, interleaved with
/// [`ServerApp::handle`] calls.  Both orders must yield the same payloads, which is what
/// keeps simulated results identical however the draws are scheduled.  The builtin
/// applications' factories and the scenario engine's class multiplexer all satisfy it.
pub trait RequestFactory: Send {
    /// Produces the next request payload.
    fn next_request(&mut self) -> Vec<u8>;
}

/// Blanket implementation so closures can be used as factories in tests and examples.
impl<F> RequestFactory for F
where
    F: FnMut() -> Vec<u8> + Send,
{
    fn next_request(&mut self) -> Vec<u8> {
        self()
    }
}

/// Creates several independent request factories, one per client thread, so that each
/// thread draws from a decorrelated stream.
pub trait FactoryBuilder: Send + Sync {
    /// Builds the factory for client-thread `stream` of a run seeded with `seed`.
    fn build(&self, seed: u64, stream: u64) -> Box<dyn RequestFactory>;
}

/// Converts application work profiles into simulated service times.
///
/// `active_threads` is the number of workers concurrently busy when the request runs,
/// which lets implementations model contention for shared memory resources and
/// synchronization (paper §VII).
pub trait CostModel: Send + Sync {
    /// Service time in nanoseconds for a request with the given work profile, when
    /// `active_threads` workers (including this one) are busy.
    fn service_time_ns(&self, profile: &WorkProfile, active_threads: usize) -> u64;
}

/// A trivial cost model: fixed nanoseconds per instruction, ignoring the memory system.
///
/// Useful for tests and as the "infinitely fast memory, no contention" reference point.
#[derive(Debug, Clone, Copy)]
pub struct InstructionRateModel {
    /// Nanoseconds charged per instruction (1 / (IPC × frequency)).
    pub ns_per_instruction: f64,
}

impl Default for InstructionRateModel {
    fn default() -> Self {
        // 2.4 GHz × IPC 1.5 ≈ 3.6 giga-instructions/s ≈ 0.28 ns per instruction.
        InstructionRateModel {
            ns_per_instruction: 0.28,
        }
    }
}

impl CostModel for InstructionRateModel {
    fn service_time_ns(&self, profile: &WorkProfile, _active_threads: usize) -> u64 {
        (profile.instructions as f64 * self.ns_per_instruction).round() as u64
    }
}

/// An echo application used by harness unit tests: it returns the payload unchanged and
/// optionally burns a configurable amount of CPU time per request.
#[derive(Debug, Default)]
pub struct EchoApp {
    /// Busy-loop iterations to run per request (0 = respond immediately).
    pub spin_iters: u64,
}

impl EchoApp {
    /// Creates an echo app that spins for roughly `approx_us` microseconds per request.
    #[must_use]
    pub fn with_service_us(approx_us: u64) -> Self {
        // Calibrating spin loops precisely is unnecessary; ~3 iterations/ns is a
        // reasonable ballpark for a simple integer loop and tests only rely on ordering.
        EchoApp {
            spin_iters: approx_us * 1_000,
        }
    }
}

impl ServerApp for EchoApp {
    fn name(&self) -> &str {
        "echo"
    }

    fn handle(&self, payload: &[u8]) -> Response {
        let mut acc = 0u64;
        for i in 0..self.spin_iters {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        // Keep the accumulator observable so the loop is not optimized away.
        let mut out = payload.to_vec();
        out.push((acc & 0xFF) as u8);
        Response::with_work(
            out,
            WorkProfile {
                instructions: 10 + self.spin_iters,
                mem_reads: payload.len() as u64 / 8,
                mem_writes: payload.len() as u64 / 8,
                footprint_bytes: payload.len() as u64,
                locality: 1.0,
                critical_fraction: 0.0,
            },
        )
    }
}

/// A server whose service times are measured samples: the M/G/k queue of the paper's
/// case study (§VII) when run simulated on one instance with `worker_threads = k`.
///
/// Each payload carries one sample in nanoseconds, drawn uniformly by the run's
/// [`EmpiricalService::factory`], and [`ServerApp::handle`] reports it as the request's
/// instruction count, which [`EmpiricalService::COST_MODEL`] replays one nanosecond per
/// instruction.  The draw lives in the payload, so the cost model holds no state.
#[derive(Debug, Clone)]
pub struct EmpiricalService {
    samples: Arc<[u64]>,
}

impl EmpiricalService {
    /// The cost model that serves each request for exactly its sample.
    pub const COST_MODEL: InstructionRateModel = InstructionRateModel {
        ns_per_instruction: 1.0,
    };

    /// Creates a service from observed service times (nanoseconds).
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Config`] if `samples` is empty.
    pub fn new(samples: Vec<u64>) -> Result<Self, HarnessError> {
        if samples.is_empty() {
            return Err(HarnessError::Config(
                "an empirical service needs at least one service-time sample".into(),
            ));
        }
        Ok(EmpiricalService {
            samples: samples.into(),
        })
    }

    /// The request factory of a run seeded with `seed`: payload `n` is the sample at
    /// index `derive_seed(root, n) % len` as little-endian bytes, a SplitMix64 stream
    /// from a root derived from `seed` for this factory alone.
    #[must_use]
    pub fn factory(&self, seed: u64) -> impl RequestFactory {
        let samples = Arc::clone(&self.samples);
        let root = derive_seed(seed, 0xE3F1);
        let mut drawn = 0u64;
        move || {
            let index = derive_seed(root, drawn) % samples.len() as u64;
            drawn += 1;
            samples[index as usize].to_le_bytes().to_vec()
        }
    }
}

impl ServerApp for EmpiricalService {
    fn name(&self) -> &str {
        "empirical"
    }

    fn handle(&self, payload: &[u8]) -> Response {
        let sample = payload.get(..8).and_then(|b| b.try_into().ok());
        Response::with_work(
            Vec::new(),
            WorkProfile {
                instructions: sample.map_or(0, u64::from_le_bytes),
                ..WorkProfile::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_app_round_trips_payload() {
        let app = EchoApp::default();
        let resp = app.handle(b"hello");
        assert_eq!(&resp.payload[..5], b"hello");
        assert_eq!(app.name(), "echo");
    }

    #[test]
    fn closure_factories_work() {
        let mut counter = 0u8;
        let mut factory = move || {
            counter += 1;
            vec![counter]
        };
        assert_eq!(RequestFactory::next_request(&mut factory), vec![1]);
        assert_eq!(RequestFactory::next_request(&mut factory), vec![2]);
    }

    #[test]
    fn instruction_rate_model_scales_linearly() {
        let m = InstructionRateModel {
            ns_per_instruction: 0.5,
        };
        let p1 = WorkProfile {
            instructions: 1_000,
            ..WorkProfile::default()
        };
        let p2 = WorkProfile {
            instructions: 2_000,
            ..WorkProfile::default()
        };
        assert_eq!(m.service_time_ns(&p1, 1), 500);
        assert_eq!(m.service_time_ns(&p2, 4), 1_000);
    }

    #[test]
    fn empirical_service_replays_its_samples_reproducibly() {
        use crate::config::{BenchmarkConfig, HarnessMode};
        assert!(matches!(
            EmpiricalService::new(Vec::new()),
            Err(HarnessError::Config(_))
        ));
        let service = EmpiricalService::new(vec![1_000, 5_000, 20_000]).unwrap();
        let app: Arc<dyn ServerApp> = Arc::new(service.clone());
        let run = |seed: u64| {
            let config = BenchmarkConfig::new(50_000.0, 2_000)
                .with_mode(HarnessMode::Simulated)
                .with_seed(seed);
            let mut factory = service.factory(seed);
            let model = &EmpiricalService::COST_MODEL;
            crate::runner::execute(&app, &mut factory, &config, Some(model)).unwrap()
        };
        let report = run(1);
        assert_eq!(
            (report.service.min_ns, report.service.max_ns),
            (1_000, 20_000)
        );
        assert_eq!(format!("{report:?}"), format!("{:?}", run(1)));
        assert_ne!(format!("{report:?}"), format!("{:?}", run(2)));
    }

    #[test]
    fn echo_app_spin_increases_work() {
        let fast = EchoApp::default();
        let slow = EchoApp::with_service_us(10);
        assert!(slow.handle(b"x").work.instructions > fast.handle(b"x").work.instructions);
    }
}

/// Test doubles for the harness's failure paths.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// An echo server whose worker panics on the 21st request it handles.
    #[derive(Debug, Default)]
    pub(crate) struct PanicsOn21st(AtomicUsize);

    impl ServerApp for PanicsOn21st {
        fn name(&self) -> &str {
            "panics"
        }

        fn handle(&self, payload: &[u8]) -> Response {
            let served = self.0.fetch_add(1, Ordering::Relaxed) + 1;
            assert!(served < 21, "request {served}: the application crashed");
            Response::new(payload.to_vec())
        }
    }

    /// Runs `run` on a thread of its own and returns what it returns, or `None` if it
    /// has not returned within `secs` seconds (the thread is left behind).
    pub(crate) fn within<T: Send + 'static>(
        secs: u64,
        run: impl FnOnce() -> T + Send + 'static,
    ) -> Option<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(run()));
        rx.recv_timeout(Duration::from_secs(secs)).ok()
    }
}
