//! Property tests for the shedding admission policies.
//!
//! Three guarantees, each over randomized push/receive schedules:
//!
//! - **Deadline shedding never serves the expired.**  Under `DropDeadline`, every
//!   request a consumer actually receives was within its queueing-delay SLO at the
//!   moment of delivery; everything older is reclassified as dropped.
//! - **Priority eviction is exact.**  Under `Priority`, a full queue evicts the
//!   youngest request of the lowest class — and only for a strictly higher-class
//!   arrival.  Verified against an independent model of the documented policy.
//! - **Shedding never blocks the producer.**  `Drop`, `DropDeadline` and `Priority`
//!   resolve every push immediately even with no consumer draining (the property the
//!   discrete-event simulator relies on to run them in virtual time).
//!
//! Every schedule also checks the admission ledger: `accepted + dropped == offered`,
//! with `accepted` equal to what the consumer really received once the queue drains.

use proptest::prelude::*;
use std::sync::Arc;
use tailbench_core::collector::RequestTags;
use tailbench_core::queue::{AdmissionPolicy, Completion, PushOutcome, RequestQueue};
use tailbench_core::request::{Request, RequestId};

fn request(id: u64, issued_ns: u64) -> Request {
    Request {
        id: RequestId(id),
        payload: Vec::new(),
        issued_ns,
    }
}

proptest! {
    /// Interleaved pushes and receives on a `DropDeadline` queue: no delivered request
    /// may be past its SLO at delivery time, and the ledger must balance.
    #[test]
    fn deadline_shed_never_delivers_expired_requests(
        capacity in 1usize..8,
        slo_ns in 1u64..400,
        steps in prop::collection::vec(((0u64..250), any::<bool>()), 1..60),
    ) {
        let q = RequestQueue::with_policy(AdmissionPolicy::DropDeadline { capacity, slo_ns });
        let rx = q.receiver();
        let mut now = 0u64;
        let mut offered = 0u64;
        let mut received = 0u64;
        for (id, (gap, also_recv)) in steps.iter().enumerate() {
            now += gap;
            offered += 1;
            let outcome = q.push(request(id as u64, now), now, Completion::Inline);
            prop_assert!(outcome != PushOutcome::Closed);
            // recv_at parks on an empty queue while producers are alive, and deadline
            // shedding can empty the queue mid-call — so only pull when the push just
            // admitted an age-zero item: the shed loop must then deliver *something*.
            if *also_recv && outcome == PushOutcome::Accepted {
                let item = rx.recv_at(&|| now).expect("a fresh item is queued");
                received += 1;
                prop_assert!(
                    now.saturating_sub(item.enqueued_ns) <= slo_ns,
                    "delivered a request {}ns old, past the {}ns SLO",
                    now - item.enqueued_ns,
                    slo_ns
                );
            }
        }
        // Drain the rest at a final instant and settle the ledger.
        let observer = q.observer();
        drop(q);
        now += 1;
        while let Ok(item) = rx.recv_at(&|| now) {
            received += 1;
            prop_assert!(now.saturating_sub(item.enqueued_ns) <= slo_ns);
        }
        let summary = observer.summary().expect("balanced ledger");
        prop_assert_eq!(summary.accepted, received);
        prop_assert_eq!(summary.accepted + summary.dropped, offered);
    }

    /// `Priority` admission against an independent model: at capacity, an arrival
    /// evicts the youngest queued request of the lowest class, and only if that class
    /// is strictly lower-priority than the arrival's.
    #[test]
    fn priority_evicts_the_youngest_lowest_class_first(
        capacity in 1usize..6,
        classes in prop::collection::vec(0u16..4, 1..40),
    ) {
        let names = (0..4).map(|c| format!("class-{c}")).collect();
        let tags = Arc::new(RequestTags::new(names, Vec::new(), classes.clone(), Vec::new()));
        let q = RequestQueue::with_policy_and_tags(
            AdmissionPolicy::Priority { capacity },
            Some(Arc::clone(&tags)),
        );
        let rx = q.receiver();

        // The documented policy, modeled independently.
        let mut model: Vec<(u64, u16)> = Vec::new();
        let mut model_dropped = 0u64;
        for (id, class) in classes.iter().enumerate() {
            let outcome = q.push(request(id as u64, id as u64), id as u64, Completion::Inline);
            prop_assert!(outcome != PushOutcome::Closed);
            if model.len() >= capacity {
                // Victim: the youngest (latest) entry of the numerically highest
                // (lowest-priority) class, only if strictly below the arrival.
                let mut victim: Option<(usize, u16)> = None;
                for (index, &(_, queued_class)) in model.iter().enumerate() {
                    if victim.is_none_or(|(_, worst)| queued_class >= worst) {
                        victim = Some((index, queued_class));
                    }
                }
                match victim {
                    Some((index, worst)) if worst > *class => {
                        model.remove(index);
                        model_dropped += 1;
                        model.push((id as u64, *class));
                        prop_assert_eq!(outcome, PushOutcome::Accepted);
                    }
                    _ => {
                        model_dropped += 1;
                        prop_assert_eq!(outcome, PushOutcome::Dropped);
                    }
                }
            } else {
                model.push((id as u64, *class));
                prop_assert_eq!(outcome, PushOutcome::Accepted);
            }
        }

        let observer = q.observer();
        drop(q);
        let mut delivered = Vec::new();
        while let Ok(item) = rx.recv() {
            delivered.push(item.request.id.0);
        }
        let expected: Vec<u64> = model.iter().map(|&(id, _)| id).collect();
        prop_assert_eq!(delivered, expected);
        let summary = observer.summary().expect("balanced ledger");
        prop_assert_eq!(summary.dropped, model_dropped);
        prop_assert_eq!(summary.accepted + summary.dropped, classes.len() as u64);
    }

    /// Shedding policies resolve every push immediately, even when nothing drains:
    /// the queue never exceeds its capacity and the producer is never parked (a
    /// blocking regression would hang this test rather than fail an assertion).
    #[test]
    fn shedding_policies_never_block_the_producer(
        capacity in 1usize..8,
        extra in 1usize..24,
        policy_pick in 0usize..3,
        slo_ns in 1u64..1_000,
    ) {
        let policy = [
            AdmissionPolicy::Drop { capacity },
            AdmissionPolicy::DropDeadline { capacity, slo_ns },
            AdmissionPolicy::Priority { capacity },
        ][policy_pick];
        let q = RequestQueue::with_policy(policy);
        let _rx = q.receiver(); // alive but idle: nothing ever drains
        let total = capacity + extra;
        for id in 0..total as u64 {
            let outcome = q.push(request(id, id), id, Completion::Inline);
            prop_assert!(outcome != PushOutcome::Closed);
            prop_assert!(q.depth() <= capacity, "depth exceeded the shed capacity");
        }
        let summary = q.observer().summary().expect("balanced ledger");
        prop_assert_eq!(summary.accepted + summary.dropped, total as u64);
        // Nothing was delivered, so at most `capacity` requests can still count as
        // accepted — every other offer ended up dropped, whichever shed path took it.
        prop_assert!(summary.dropped >= extra as u64);
    }
}
