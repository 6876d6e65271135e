//! High-dynamic-range latency recording for the TailBench-RS harness.
//!
//! The TailBench paper (§IV-C) records per-request latencies either exactly (for short
//! runs) or in a *high dynamic range* (HDR) histogram that covers values from microseconds
//! to thousands of seconds with logarithmic space and a bounded relative error.  This
//! crate provides both representations plus the statistical machinery used by the
//! harness:
//!
//! * [`HdrHistogram`] — an integer-valued HDR histogram with configurable significant
//!   digits, equivalent to the structure described in the paper ("the recorded value is
//!   within 1% of the actual").
//! * [`LatencySummary`] — an adaptive recorder that stores exact samples for short runs
//!   and transparently degrades to an [`HdrHistogram`] once a sample cap is exceeded.
//! * [`ci`] — confidence-interval helpers that judge whether repeated runs have
//!   converged (the paper targets 95% confidence intervals within 1% of the mean).
//!
//! # Example
//!
//! ```
//! use tailbench_histogram::HdrHistogram;
//!
//! let mut h = HdrHistogram::new(1, 60_000_000_000, 3).unwrap();
//! for v in [250_000u64, 500_000, 900_000, 12_000_000] {
//!     h.record(v);
//! }
//! assert_eq!(h.len(), 4);
//! let p95 = h.value_at_quantile(0.95);
//! assert!(p95 >= 11_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod hdr;
pub mod summary;

pub use ci::{ConfidenceInterval, RunSeries};
pub use hdr::{HdrHistogram, HistogramError};
pub use summary::LatencySummary;

/// Standard quantiles reported throughout the suite (mean is reported separately).
pub const REPORT_QUANTILES: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];
