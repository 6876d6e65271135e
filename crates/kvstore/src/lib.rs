//! The masstree substitute: a fast in-memory ordered key-value store.
//!
//! TailBench's `masstree` benchmark is a highly optimized in-memory key-value store
//! driven by a 50% GET / 50% PUT YCSB mix (paper §III, Table I).  This crate provides a
//! from-scratch Rust substitute with the same architectural ingredients:
//!
//! * [`bptree`] — a wide-node B+-tree, the ordered index at the heart of the store;
//! * [`store`] — a range-sharded, reader-writer-locked concurrent store that serves
//!   values in place: reads append to the caller's buffer, overwrites reuse the stored
//!   value, scans lend entries to a visitor;
//! * [`service`] — the [`ServerApp`](tailbench_core::app::ServerApp) adapter and the
//!   mycsb-a request factory that plug the store into the TailBench harness.
//!
//! # Example
//!
//! ```
//! use tailbench_kvstore::store::KvStore;
//!
//! let store = KvStore::new(4, 1_000);
//! assert!(!store.put(17, b"value"), "17 is a new key");
//! let mut response = vec![1];
//! assert!(store.get_into(17, &mut response));
//! assert_eq!(response, b"\x01value");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bptree;
pub mod service;
pub mod store;

pub use bptree::BPlusTree;
pub use service::{MasstreeApp, YcsbRequestFactory};
pub use store::KvStore;
