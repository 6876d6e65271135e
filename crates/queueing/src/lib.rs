//! Closed-form queueing models for the TailBench case study and for checking the
//! discrete-event simulator.
//!
//! The paper's §VII case study compares measured 95th-percentile latencies against the
//! prediction of an M/G/n queueing model: Poisson arrivals, an empirical ("general")
//! service-time distribution, and `n` servers.  Its percentiles have no closed form, so
//! that prediction is a simulated run of the harness itself (one instance with `n`
//! workers serving `tailbench_core::app::EmpiricalService`).  This crate holds the
//! analytic results that pin that simulator down:
//!
//! * [`mg1`] — the Pollaczek–Khinchine formula for the M/G/1 *mean* waiting time;
//! * [`mmk`] — Erlang C for the M/M/k probability of waiting and mean wait, and the
//!   quantiles of the exponential M/M/1 sojourn time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mg1;
pub mod mmk;

pub use mg1::Mg1Model;
pub use mmk::{mm1_sojourn_quantile_s, MmkModel};
