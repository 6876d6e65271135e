//! masstree as a TailBench application.
//!
//! [`MasstreeApp`] wires the concurrent store into the harness' [`ServerApp`] interface,
//! and [`YcsbRequestFactory`] produces the mycsb-a request stream (50% GETs / 50% PUTs
//! with Zipfian key popularity, paper Table I).  Requests and responses use a compact
//! binary encoding so the same payloads flow unchanged through the integrated, loopback
//! and networked configurations.

use crate::store::KvStore;
use tailbench_core::app::{RequestFactory, ServerApp};
use tailbench_core::request::{Response, WorkProfile};
use tailbench_workloads::rng::{seeded_rng, SuiteRng};
use tailbench_workloads::ycsb::{KvDraw, KvOp, YcsbConfig, YcsbGenerator};

/// Wire encoding of key-value operations.
pub mod codec {
    use tailbench_workloads::ycsb::KvOp;

    /// Operation tags.
    const OP_GET: u8 = 0;
    const OP_PUT: u8 = 1;
    const OP_SCAN: u8 = 2;

    /// The tag and key of a frame, with room for `body` more bytes.
    fn header(tag: u8, key: u64, body: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + body);
        out.push(tag);
        out.extend_from_slice(&key.to_le_bytes());
        out
    }

    /// A GET frame.
    pub(crate) fn get_frame(key: u64) -> Vec<u8> {
        header(OP_GET, key, 0)
    }

    /// A PUT frame up to its value; the caller appends exactly `value_len` bytes.
    pub(crate) fn put_frame_header(key: u64, value_len: usize) -> Vec<u8> {
        let mut out = header(OP_PUT, key, 4 + value_len);
        out.extend_from_slice(&(value_len as u32).to_le_bytes());
        out
    }

    /// A SCAN frame.
    pub(crate) fn scan_frame(key: u64, count: usize) -> Vec<u8> {
        let mut out = header(OP_SCAN, key, 4);
        out.extend_from_slice(&(count as u32).to_le_bytes());
        out
    }

    /// Encodes an operation into a request payload.
    #[must_use]
    pub fn encode(op: &KvOp) -> Vec<u8> {
        match op {
            KvOp::Get { key } => get_frame(*key),
            KvOp::Put { key, value } => {
                let mut out = put_frame_header(*key, value.len());
                out.extend_from_slice(value);
                out
            }
            KvOp::Scan { key, count } => scan_frame(*key, *count),
        }
    }

    /// Decodes a request payload. Returns `None` for malformed payloads.
    #[must_use]
    pub fn decode(payload: &[u8]) -> Option<KvOp> {
        let (&tag, rest) = payload.split_first()?;
        if rest.len() < 8 {
            return None;
        }
        let key = u64::from_le_bytes(rest[..8].try_into().ok()?);
        let rest = &rest[8..];
        match tag {
            OP_GET => Some(KvOp::Get { key }),
            OP_PUT => {
                if rest.len() < 4 {
                    return None;
                }
                let len = u32::from_le_bytes(rest[..4].try_into().ok()?) as usize;
                let value = rest.get(4..4 + len)?.to_vec();
                Some(KvOp::Put { key, value })
            }
            OP_SCAN => {
                if rest.len() < 4 {
                    return None;
                }
                let count = u32::from_le_bytes(rest[..4].try_into().ok()?) as usize;
                Some(KvOp::Scan { key, count })
            }
            _ => None,
        }
    }
}

/// What the cost model distinguishes about an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Get,
    Put,
    Scan,
}

/// The masstree-substitute server application.
#[derive(Debug)]
pub struct MasstreeApp {
    store: KvStore,
    value_size: usize,
}

impl MasstreeApp {
    /// Builds the store and preloads it with the workload's records.
    #[must_use]
    pub fn new(config: &YcsbConfig) -> Self {
        let store = KvStore::new(16, config.records);
        let generator = YcsbGenerator::new(config.clone());
        for (key, value) in generator.load_keys() {
            store.put(key, value);
        }
        MasstreeApp {
            store,
            value_size: config.value_size,
        }
    }

    /// Direct access to the underlying store (used by tests and examples).
    #[must_use]
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    fn work_profile(&self, kind: OpKind, touched: usize) -> WorkProfile {
        let depth = self.store.max_depth() as u64;
        // Each tree level costs a node search (~32 key comparisons) plus a couple of
        // cache lines; values add copy work.
        let (instructions, bytes) = match kind {
            OpKind::Get => (800 + 120 * depth, 64 * depth + self.value_size as u64),
            OpKind::Put => (1_100 + 140 * depth, 128 * depth + self.value_size as u64),
            OpKind::Scan => (
                800 + 300 * touched as u64,
                64 * depth + (touched * self.value_size) as u64,
            ),
        };
        WorkProfile {
            instructions,
            mem_reads: bytes / 16,
            mem_writes: if kind == OpKind::Put {
                bytes / 32
            } else {
                bytes / 128
            },
            footprint_bytes: bytes,
            locality: 0.75,
            // masstree scales near-linearly: only the brief per-shard write lock is a
            // critical section.
            critical_fraction: if kind == OpKind::Put { 0.04 } else { 0.01 },
        }
    }
}

impl ServerApp for MasstreeApp {
    fn name(&self) -> &str {
        "masstree"
    }

    fn handle(&self, payload: &[u8]) -> Response {
        let Some(op) = codec::decode(payload) else {
            return Response::new(vec![0xFF]);
        };
        let (result, kind, touched) = match op {
            KvOp::Get { key } => match self.store.get(key) {
                Some(value) => {
                    let mut out = vec![1u8];
                    out.extend_from_slice(&value);
                    (out, OpKind::Get, 1)
                }
                None => (vec![0u8], OpKind::Get, 1),
            },
            KvOp::Put { key, value } => {
                let existed = self.store.put(key, value);
                (vec![u8::from(existed)], OpKind::Put, 1)
            }
            KvOp::Scan { key, count } => {
                let entries = self.store.scan(key, count);
                let mut out = Vec::with_capacity(4 + entries.len() * 8);
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (k, _) in &entries {
                    out.extend_from_slice(&k.to_le_bytes());
                }
                (out, OpKind::Scan, entries.len().max(1))
            }
        };
        let work = self.work_profile(kind, touched);
        Response::with_work(result, work)
    }
}

/// Produces the mycsb-a request stream.
#[derive(Debug)]
pub struct YcsbRequestFactory {
    generator: YcsbGenerator,
    rng: SuiteRng,
}

impl YcsbRequestFactory {
    /// Creates a factory for the given workload configuration and seed.
    #[must_use]
    pub fn new(config: &YcsbConfig, seed: u64) -> Self {
        YcsbRequestFactory {
            generator: YcsbGenerator::new(config.clone()),
            rng: seeded_rng(seed, 100),
        }
    }
}

impl RequestFactory for YcsbRequestFactory {
    /// Writes each frame, a PUT's value included, into one right-sized allocation.
    fn next_request(&mut self) -> Vec<u8> {
        match self.generator.draw(&mut self.rng) {
            KvDraw::Get { key } => codec::get_frame(key),
            KvDraw::Put { key } => {
                let value_size = self.generator.config().value_size;
                let mut out = codec::put_frame_header(key, value_size);
                self.generator.write_value(key, &mut out);
                out
            }
            KvDraw::Scan { key, count } => codec::scan_frame(key, count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailbench_workloads::ycsb::OpMix;

    fn small_app() -> MasstreeApp {
        MasstreeApp::new(&YcsbConfig::small())
    }

    #[test]
    fn codec_round_trips_all_ops() {
        let ops = [
            KvOp::Get { key: 42 },
            KvOp::Put {
                key: 7,
                value: vec![1, 2, 3],
            },
            KvOp::Scan {
                key: 100,
                count: 25,
            },
        ];
        for op in ops {
            assert_eq!(codec::decode(&codec::encode(&op)), Some(op));
        }
        assert_eq!(codec::decode(&[]), None);
        assert_eq!(codec::decode(&[9, 0, 0]), None);
    }

    #[test]
    fn app_serves_gets_for_preloaded_keys() {
        let app = small_app();
        let resp = app.handle(&codec::encode(&KvOp::Get { key: 5 }));
        assert_eq!(resp.payload[0], 1, "preloaded key must be found");
        assert!(resp.payload.len() > 1);
        assert!(resp.work.instructions > 0);
    }

    #[test]
    fn app_applies_puts() {
        let app = small_app();
        let put = KvOp::Put {
            key: 3,
            value: vec![9, 9, 9],
        };
        let resp = app.handle(&codec::encode(&put));
        assert_eq!(
            resp.payload,
            vec![1],
            "key 3 was preloaded, so put overwrites"
        );
        let get = app.handle(&codec::encode(&KvOp::Get { key: 3 }));
        assert_eq!(&get.payload[1..], &[9, 9, 9]);
    }

    #[test]
    fn app_serves_scans() {
        let app = small_app();
        let resp = app.handle(&codec::encode(&KvOp::Scan { key: 0, count: 10 }));
        let n = u32::from_le_bytes(resp.payload[..4].try_into().unwrap());
        assert_eq!(n, 10);
    }

    #[test]
    fn malformed_payload_is_rejected_gracefully() {
        let app = small_app();
        let resp = app.handle(&[42, 1, 2]);
        assert_eq!(resp.payload, vec![0xFF]);
    }

    #[test]
    fn factory_produces_decodable_requests() {
        let mut f = YcsbRequestFactory::new(&YcsbConfig::small(), 11);
        for _ in 0..200 {
            let payload = f.next_request();
            assert!(codec::decode(&payload).is_some());
        }
    }

    #[test]
    fn factory_frames_equal_encoded_ops_for_every_mix() {
        // FNV-1a over the first 20k frames of seed 29, recorded from a build whose
        // factory returned `codec::encode(&generator.next_op(..))`.
        let pinned = [
            (OpMix::MYCSB_A, 0xeb70_4577_2447_736e_u64),
            (OpMix::YCSB_B, 0xc88f_8e08_fb4a_f6c3),
            (OpMix::YCSB_E, 0xdfac_7b5d_43c4_4d2c),
        ];
        for (mix, digest) in pinned {
            let config = YcsbConfig {
                mix,
                ..YcsbConfig::small()
            };
            let mut factory = YcsbRequestFactory::new(&config, 29);
            let generator = YcsbGenerator::new(config);
            let mut rng = seeded_rng(29, 100);
            let mut hash = 0xCBF2_9CE4_8422_2325_u64;
            for i in 0..20_000 {
                let frame = factory.next_request();
                assert_eq!(
                    frame,
                    codec::encode(&generator.next_op(&mut rng)),
                    "draw {i}"
                );
                assert_eq!(frame.capacity(), frame.len(), "draw {i} is not right-sized");
                for &b in &frame {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
            assert_eq!(hash, digest, "{mix:?}");
        }
    }

    #[test]
    fn end_to_end_through_harness() {
        use std::sync::Arc;
        use tailbench_core::config::BenchmarkConfig;

        let config = YcsbConfig::small();
        let app: Arc<dyn ServerApp> = Arc::new(MasstreeApp::new(&config));
        let mut factory = YcsbRequestFactory::new(&config, 3);
        let report = tailbench_core::runner::execute(
            &app,
            &mut factory,
            &BenchmarkConfig::new(2_000.0, 300).with_warmup(30),
            None,
        )
        .unwrap();
        assert_eq!(report.app, "masstree");
        assert!(report.requests > 250);
        assert!(report.service.p95_ns > 0);
    }
}
