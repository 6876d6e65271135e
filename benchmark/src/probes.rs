//! Timing engine of the layer probes: a probe times a fixed operation count per batch
//! and reports ns per operation as min / median / p95 over the batches.  Operation
//! counts are constants, not calibrated, so two commits time the same work.

use crate::stats::Dist;
use std::time::Instant;

/// How much probing a run affords.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Timed batches per probe (the first, untimed, batch warms caches).
    pub batches: usize,
    /// Divisor on every probe's operation count (`--scale tiny` shrinks the work).
    pub shrink: u64,
}

impl Budget {
    pub const FULL: Budget = Budget {
        batches: 15,
        shrink: 1,
    };
    pub const TINY: Budget = Budget {
        batches: 3,
        shrink: 50,
    };

    pub fn ops(&self, full: u64) -> u64 {
        (full / self.shrink).max(1)
    }
}

/// Times `batch`, which performs `ops` operations per call, and returns ns per
/// operation over the budget's batches.
pub fn per_op(budget: Budget, ops: u64, mut batch: impl FnMut()) -> Dist {
    batch();
    let samples: Vec<f64> = (0..budget.batches)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    Dist::of(&samples)
}

/// Like [`per_op`] for a batch that needs untimed preparation: `prepare` builds the
/// input, `batch` consumes it.
pub fn per_op_prepared<I>(
    budget: Budget,
    ops: u64,
    mut prepare: impl FnMut() -> I,
    mut batch: impl FnMut(I),
) -> Dist {
    batch(prepare());
    let samples: Vec<f64> = (0..budget.batches)
        .map(|_| {
            let input = prepare();
            let start = Instant::now();
            batch(input);
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    Dist::of(&samples)
}
