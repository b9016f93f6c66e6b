//! Per-client FLOP budget accounting.
//!
//! A planning service fronting a shared simulator needs admission control:
//! a single `sweep` over a large grid is thousands of simulations, and a
//! multi-tenant deployment must be able to bound what one client can spend.
//! The unit of account is *simulated training FLOPs* — the work the
//! requested plan would model, which is also what drives the simulator's
//! own cost — so the ledger is stable across server hardware.
//!
//! Each connection gets a [`FlopLedger`] seeded by the server default or
//! the client's `hello` frame. Queries are charged **before** they run and
//! **only on cache miss** — a served-from-cache answer is free, which both
//! rewards well-behaved clients and keeps duplicate bursts from draining
//! the budget N times for one simulation.

use mics_cluster::ClusterSpec;
use mics_core::candidate_partition_sizes;
use mics_model::WorkloadSpec;

use crate::protocol::PlanError;

/// Estimated simulated FLOPs for one `simulate` query: the modelled
/// cluster-wide work of one training iteration.
pub fn simulate_cost(workload: &WorkloadSpec, cluster: &ClusterSpec, accum_steps: usize) -> f64 {
    workload.total_flops() * accum_steps.max(1) as f64 * cluster.total_devices() as f64
}

/// Estimated simulated FLOPs for one `tune` query: one `simulate` per
/// candidate the search will visit (partition sizes × hierarchical toggle ×
/// compression options).
pub fn tune_cost(
    workload: &WorkloadSpec,
    cluster: &ClusterSpec,
    accum_steps: usize,
    compression_options: usize,
) -> f64 {
    let candidates = candidate_partition_sizes(cluster).len() * 2 * compression_options.max(1);
    simulate_cost(workload, cluster, accum_steps) * candidates as f64
}

/// A spend-down FLOP account for one client connection.
#[derive(Debug, Clone)]
pub struct FlopLedger {
    granted: f64,
    spent: f64,
}

impl FlopLedger {
    /// A ledger with `granted` FLOPs of headroom. Non-finite or negative
    /// grants are clamped to zero (nothing runs until a sane `hello`).
    pub fn new(granted: f64) -> Self {
        let granted = if granted.is_finite() && granted > 0.0 { granted } else { 0.0 };
        FlopLedger { granted, spent: 0.0 }
    }

    /// FLOPs still available.
    pub fn remaining(&self) -> f64 {
        (self.granted - self.spent).max(0.0)
    }

    /// FLOPs charged so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Replace the grant (a repeated `hello` re-provisions the connection;
    /// spend carries over).
    pub fn regrant(&mut self, granted: f64) {
        if granted.is_finite() && granted > 0.0 {
            self.granted = granted;
        }
    }

    /// Return `cost` FLOPs to the ledger. The server charges optimistically
    /// before entering the cache and refunds queries that were served from
    /// it (hit or collapsed duplicate) or failed before simulating — the net
    /// effect is that only cache misses that actually ran are billed.
    pub fn refund(&mut self, cost: f64) {
        if cost.is_finite() && cost > 0.0 {
            self.spent = (self.spent - cost).max(0.0);
        }
    }

    /// Charge `cost` FLOPs, or reject the query without charging anything.
    pub fn charge(&mut self, cost: f64) -> Result<(), PlanError> {
        let cost = if cost.is_finite() && cost > 0.0 { cost } else { 0.0 };
        if cost > self.remaining() {
            return Err(PlanError::BudgetExceeded { needed: cost, remaining: self.remaining() });
        }
        self.spent += cost;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mics_cluster::InstanceType;
    use mics_model::TransformerConfig;

    #[test]
    fn ledger_charges_until_exhausted() {
        let mut ledger = FlopLedger::new(100.0);
        ledger.charge(60.0).unwrap();
        assert_eq!(ledger.remaining(), 40.0);
        let err = ledger.charge(50.0).unwrap_err();
        match err {
            PlanError::BudgetExceeded { needed, remaining } => {
                assert_eq!(needed, 50.0);
                assert_eq!(remaining, 40.0);
            }
            other => panic!("wrong error: {other:?}"),
        }
        // The failed charge did not touch the balance.
        ledger.charge(40.0).unwrap();
        assert_eq!(ledger.remaining(), 0.0);
        // A refund restores headroom (the cache-hit path).
        ledger.refund(30.0);
        assert_eq!(ledger.remaining(), 30.0);
    }

    #[test]
    fn nonsense_grants_are_clamped() {
        assert_eq!(FlopLedger::new(f64::NAN).remaining(), 0.0);
        assert_eq!(FlopLedger::new(-5.0).remaining(), 0.0);
        let mut ledger = FlopLedger::new(10.0);
        ledger.regrant(f64::INFINITY); // ignored
        assert_eq!(ledger.remaining(), 10.0);
        ledger.regrant(25.0);
        assert_eq!(ledger.remaining(), 25.0);
    }

    #[test]
    fn tune_costs_scale_with_the_search_space() {
        let workload = TransformerConfig::bert_10b().workload(8);
        let cluster = ClusterSpec::new(InstanceType::p3dn_24xlarge(), 4);
        let sim = simulate_cost(&workload, &cluster, 4);
        assert!(sim > 0.0);
        let tune1 = tune_cost(&workload, &cluster, 4, 1);
        let tune2 = tune_cost(&workload, &cluster, 4, 2);
        assert!(tune1 > sim, "tuning visits many candidates");
        assert_eq!(tune2, 2.0 * tune1);
    }
}
