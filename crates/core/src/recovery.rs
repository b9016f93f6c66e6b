//! Recovery from node loss — the fault-tolerance dividend of MiCS's
//! replication topology (extension beyond the paper).
//!
//! MiCS partitions model states over a partition group of `p` devices and
//! *replicates* them across the `n/p` partition groups (§3.2). That
//! replication is introduced for communication efficiency, but it also
//! changes what a node loss means:
//!
//! * **MiCS (`p_opt < n`)**: the dead node's shards still exist on its
//!   replication-group peers in other partition groups. Recovery is a
//!   provision-and-copy: spin up a replacement instance and pull each lost
//!   rank's shard P2P from an off-node peer, cost-modeled on the same
//!   simulated NIC resources training uses ([`recovery_time`]). No training
//!   state is lost beyond the interrupted iteration.
//! * **ZeRO-3 (`p_opt = n`)**: every shard exists exactly once, so a node
//!   loss destroys state that exists nowhere else. The whole cluster must
//!   reload the latest checkpoint and redo the work since it was written.
//!
//! [`simulate_with_failures`] walks a seeded [`FaultPlan`] crash timeline
//! and reports per-failure recovery time and goodput for either policy;
//! because the plan is seeded and the cost models are deterministic, the
//! same seed always yields the identical report. The cloud side of the model
//! (instance provisioning, checkpoint-store bandwidth and cadence) is a set of
//! fixed constants, the same for every strategy.

use crate::memory::OomError;
use crate::TrainingJob;
use mics_cluster::{ClusterSpec, NodeId, Rank};
use mics_simnet::{FaultKind, FaultPlan, Op, Sim, SimTime};
use std::collections::{BTreeSet, HashMap};

/// Time to obtain and boot a replacement instance (spot/on-demand
/// provisioning plus image boot and NCCL re-initialization).
const NODE_PROVISION: SimTime = SimTime::from_secs(90);
/// Per-node sustained read bandwidth from the checkpoint store (object
/// storage through the host), bytes/s.
const CHECKPOINT_READ_BW: f64 = 1.0e9;
/// Per-node sustained write bandwidth to the checkpoint store, bytes/s.
const CHECKPOINT_WRITE_BW: f64 = 0.8e9;
/// How often a checkpoint-dependent policy writes one.
const CHECKPOINT_INTERVAL: SimTime = SimTime::from_secs(20 * 60);
/// Replication-protected policies still checkpoint (to survive losing a
/// whole replication set), but this many times less often.
const PEER_COPY_CKPT_DILATION: u64 = 8;

/// How a strategy can restore the model states a dead node held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Lost shards survive on replication-group peers on other nodes; copy
    /// them P2P to the replacement node.
    PeerCopy {
        /// Number of full model-state replicas in the cluster (`n / p_opt`).
        replication: usize,
    },
    /// No off-node replica exists; the whole cluster reloads the latest
    /// checkpoint and redoes the work since it was written.
    CheckpointReload,
}

impl RecoveryPolicy {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryPolicy::PeerCopy { .. } => "peer-copy",
            RecoveryPolicy::CheckpointReload => "checkpoint-reload",
        }
    }
}

/// Breakdown of restoring training after a single node loss.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryTime {
    /// Policy this breakdown was computed under.
    pub policy: RecoveryPolicy,
    /// Replacement-instance provisioning time (both policies pay it).
    pub provision: SimTime,
    /// Time to restore the lost model states: P2P shard copy (peer-copy)
    /// or parallel checkpoint read (checkpoint-reload).
    pub state_restore: SimTime,
    /// Expected redone work per failure: the interrupted iteration
    /// (peer-copy) or half a checkpoint interval of training
    /// (checkpoint-reload).
    pub lost_work: SimTime,
}

impl RecoveryTime {
    /// Total time from the failure until training is back to the point it
    /// had reached when the node died.
    pub fn total(&self) -> SimTime {
        self.provision + self.state_restore + self.lost_work
    }
}

/// Goodput accounting of a training run over a failure timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Strategy label (e.g. `"MiCS(p=8)"`).
    pub label: String,
    /// Recovery policy the strategy resolves to.
    pub policy: RecoveryPolicy,
    /// Failure-free iteration time.
    pub iter_time: SimTime,
    /// Recovery breakdown of one node loss.
    pub per_failure: SimTime,
    /// Node losses within the horizon.
    pub failures: usize,
    /// Total time spent provisioning + restoring state.
    pub downtime: SimTime,
    /// Total redone training time.
    pub lost_work: SimTime,
    /// Total time stalled writing periodic checkpoints.
    pub checkpoint_overhead: SimTime,
    /// Wall-clock window the timeline covers.
    pub horizon: SimTime,
    /// Fraction of the horizon spent making forward progress.
    pub goodput_fraction: f64,
    /// Failure-free throughput × goodput fraction.
    pub effective_samples_per_sec: f64,
    /// Fingerprint of the fault timeline the report was computed from
    /// (equal seeds ⇒ equal fingerprints ⇒ equal reports).
    pub fault_fingerprint: u64,
}

fn model_state_bytes(job: &TrainingJob) -> u64 {
    // Per replica: params + grads in the training dtype, plus fp32 master
    // weights and two Adam moments (12 B/param) — ZeRO's 16ψ for fp16.
    let dtype = job.workload.param_dtype_bytes;
    job.workload.total_params() * (2 * dtype + 12)
}

fn checkpoint_bytes(job: &TrainingJob) -> u64 {
    // Checkpoints persist params + optimizer states; gradients are not
    // checkpointed.
    let dtype = job.workload.param_dtype_bytes;
    job.workload.total_params() * (dtype + 12)
}

/// Time for every node to read its share of the checkpoint in parallel.
fn checkpoint_read(job: &TrainingJob) -> SimTime {
    let per_node = checkpoint_bytes(job) as f64 / job.cluster.nodes as f64;
    SimTime::from_secs_f64(per_node / CHECKPOINT_READ_BW)
}

/// Total stall writing periodic checkpoints over `horizon`: at the base
/// cadence, or at the dilated one when replicas already protect the states.
fn checkpoint_overhead(job: &TrainingJob, replicated: bool, horizon: SimTime) -> SimTime {
    let interval = if replicated {
        SimTime::from_nanos(CHECKPOINT_INTERVAL.as_nanos() * PEER_COPY_CKPT_DILATION)
    } else {
        CHECKPOINT_INTERVAL
    };
    let write = SimTime::from_secs_f64(
        checkpoint_bytes(job) as f64 / job.cluster.nodes as f64 / CHECKPOINT_WRITE_BW,
    );
    let writes = horizon.as_nanos() / interval.as_nanos();
    SimTime::from_nanos(write.as_nanos() * writes)
}

/// An off-node replication-group peer holding `lost`'s shard, if any.
/// Peers of rank `r` are the ranks `g·p + (r mod p)` of the other partition
/// groups; the donor load is spread over groups by the lost rank's local
/// index so one donor node does not serve every copy.
fn off_node_donor(job: &TrainingJob, lost: Rank) -> Option<Rank> {
    let n = job.cluster.total_devices();
    let p = job.strategy.plan(n).p_opt;
    let groups = n / p;
    let local = lost.0 % p;
    let own = lost.0 / p;
    let dead = job.cluster.node_of(lost);
    // Try every other group, starting at a local-index-dependent rotation
    // so the k concurrent copies spread over distinct donor nodes.
    (0..groups.saturating_sub(1))
        .map(|i| {
            let offset = 1 + (i + local) % (groups - 1);
            Rank(((own + offset) % groups) * p + local)
        })
        .find(|&peer| job.cluster.node_of(peer) != dead)
}

/// Resolve the recovery policy of a job: peer-copy when every rank of a
/// lost node has an off-node replica, checkpoint-reload otherwise.
pub fn policy_for(job: &TrainingJob) -> RecoveryPolicy {
    let n = job.cluster.total_devices();
    let p_opt = job.strategy.plan(n).p_opt;
    let all_have_donors =
        job.cluster.ranks_on_node(NodeId(0)).all(|r| off_node_donor(job, r).is_some());
    if p_opt < n && all_have_donors {
        RecoveryPolicy::PeerCopy { replication: n / p_opt }
    } else {
        RecoveryPolicy::CheckpointReload
    }
}

/// Cost of restoring training after losing one node (node 0 WLOG — the
/// topology is symmetric), under `job`'s resolved policy.
pub fn recovery_time(job: &TrainingJob, iter_time: SimTime) -> RecoveryTime {
    let policy = policy_for(job);
    match policy {
        RecoveryPolicy::PeerCopy { .. } => RecoveryTime {
            policy,
            provision: NODE_PROVISION,
            state_restore: peer_copy_time(job),
            lost_work: iter_time,
        },
        RecoveryPolicy::CheckpointReload => RecoveryTime {
            policy,
            provision: NODE_PROVISION,
            state_restore: checkpoint_read(job),
            // Failures are uniform within a checkpoint interval, so half of
            // one is redone on average; the seeded timeline walk in
            // `simulate_with_failures` uses each failure's exact phase.
            lost_work: SimTime::from_nanos(CHECKPOINT_INTERVAL.as_nanos() / 2),
        },
    }
}

/// Simulate the P2P shard copies that rebuild a replacement for node 0 on
/// the cluster's own fabric: each lost rank's shard leaves its donor's NIC
/// and enters the replacement node's NIC, so the k concurrent pulls share
/// (and are bottlenecked by) the replacement's ingress bandwidth exactly as
/// real restore traffic would be.
fn peer_copy_time(job: &TrainingJob) -> SimTime {
    let n = job.cluster.total_devices();
    let p_opt = job.strategy.plan(n).p_opt;
    let shard = model_state_bytes(job) / p_opt as u64;
    let alpha = job.cluster.latencies().inter;
    let mut sim = Sim::new();
    let fabric = job.cluster.build_fabric(&mut sim, 1.0);
    for lost in job.cluster.ranks_on_node(NodeId(0)) {
        let donor = off_node_donor(job, lost).expect("policy_for guarantees donors");
        let s = sim.add_stream(format!("restore[{}]", lost.0));
        sim.push(s, Op::transfer(fabric.nic_of(&job.cluster, donor), shard, alpha));
        sim.push(s, Op::transfer(fabric.nic[0], shard, alpha));
    }
    sim.run().expect("restore program cannot deadlock").makespan
}

/// Walk a seeded failure timeline and account goodput.
///
/// Crashes of `failures` that land inside `horizon` each cost one
/// [`recovery_time`] (provision + restore + redone work, with the
/// checkpoint-reload policy's redone work computed from the failure's exact
/// phase within the checkpoint cadence); checkpoint-dependent policies also
/// pay periodic write stalls. Everything is deterministic in the plan's
/// seed.
pub fn simulate_with_failures(
    job: &TrainingJob,
    failures: &FaultPlan,
    horizon: SimTime,
) -> Result<RecoveryReport, OomError> {
    let report = crate::simulate(job)?;
    let iter_time = report.iter_time;
    let rec = recovery_time(job, iter_time);

    let mut downtime = SimTime::ZERO;
    let mut lost_work = SimTime::ZERO;
    let mut count = 0usize;
    for (at, _node) in failures.crashes() {
        if at >= horizon {
            continue;
        }
        count += 1;
        downtime += rec.provision + rec.state_restore;
        lost_work += match rec.policy {
            RecoveryPolicy::PeerCopy { .. } => iter_time,
            RecoveryPolicy::CheckpointReload => {
                // Work since the last periodic checkpoint at this failure's
                // wall-clock phase.
                SimTime::from_nanos(at.as_nanos() % CHECKPOINT_INTERVAL.as_nanos())
            }
        };
    }

    let replicated = matches!(rec.policy, RecoveryPolicy::PeerCopy { .. });
    let checkpoint_overhead = checkpoint_overhead(job, replicated, horizon);
    let stalled = downtime + lost_work + checkpoint_overhead;
    let goodput_fraction = if stalled >= horizon {
        0.0
    } else {
        (horizon - stalled).as_secs_f64() / horizon.as_secs_f64()
    };
    Ok(RecoveryReport {
        label: report.label,
        policy: rec.policy,
        iter_time,
        per_failure: rec.total(),
        failures: count,
        downtime,
        lost_work,
        checkpoint_overhead,
        horizon,
        goodput_fraction,
        effective_samples_per_sec: report.samples_per_sec * goodput_fraction,
        fault_fingerprint: failures.fingerprint(),
    })
}

/// Convenience: the Poisson node-loss trace `simulate_with_failures`
/// expects, seeded and sized for `job`'s cluster. Failed nodes are assumed
/// replaced, so the process keeps its rate for the whole horizon.
pub fn poisson_failures(
    job: &TrainingJob,
    seed: u64,
    mean_between: SimTime,
    horizon: SimTime,
) -> FaultPlan {
    FaultPlan::new(seed).with_replaced_poisson_crashes(job.cluster.nodes, mean_between, horizon)
}

/// Convenience: the capacity-fluctuation trace [`simulate_elastic`] expects
/// — seeded spot preemptions paired with later capacity returns, sized for
/// `job`'s cluster.
pub fn spot_plan(
    job: &TrainingJob,
    seed: u64,
    mean_between: SimTime,
    mean_outage: SimTime,
    horizon: SimTime,
) -> FaultPlan {
    FaultPlan::new(seed).with_spot_trace(job.cluster.nodes, mean_between, mean_outage, horizon)
}

/// How a job responds to spot-capacity fluctuation (preemptions paired with
/// later capacity returns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpotPolicy {
    /// Reshape the geometry at every capacity change: after a preemption the
    /// job shrinks onto the largest feasible surviving world and keeps
    /// training; when capacity returns it grows back. Each transition stalls
    /// for a state reshard plus the interrupted iteration (grow additionally
    /// pays instance provisioning).
    Elastic,
    /// The geometry is fixed at the full cluster: training stalls whenever
    /// any slot is away, and resuming once capacity is back costs a
    /// checkpoint reload plus the work since the last periodic write.
    Static,
}

impl SpotPolicy {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            SpotPolicy::Elastic => "elastic",
            SpotPolicy::Static => "static",
        }
    }
}

/// Goodput accounting of a run over a spot capacity trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticReport {
    /// Strategy label (e.g. `"MiCS(p=8)"`).
    pub label: String,
    /// Policy the walk was accounted under.
    pub policy: SpotPolicy,
    /// Preemptions within the horizon.
    pub preemptions: usize,
    /// Capacity returns the job re-admitted (elastic grows; for the static
    /// policy, outage ends).
    pub grows: usize,
    /// Geometry transitions executed (elastic only: shrinks + grows).
    pub reshapes: usize,
    /// Total stall across transitions: reshard traffic, interrupted
    /// iterations, and (on grow / static resume) provisioning and
    /// checkpoint reads.
    pub transition_overhead: SimTime,
    /// Total time at zero forward progress (transitions, capacity the job
    /// cannot fit on, static-policy outages).
    pub stalled: SimTime,
    /// Total time stalled writing periodic checkpoints.
    pub checkpoint_overhead: SimTime,
    /// Smallest node count the job actually trained on.
    pub min_nodes: usize,
    /// Wall-clock window the trace covers.
    pub horizon: SimTime,
    /// Forward progress relative to a failure-free full-cluster run:
    /// segments at a shrunken world count at that world's fraction of full
    /// throughput.
    pub goodput_fraction: f64,
    /// Failure-free full-cluster throughput × goodput fraction.
    pub effective_samples_per_sec: f64,
    /// Fingerprint of the capacity trace (equal seeds ⇒ equal reports).
    pub fault_fingerprint: u64,
}

/// `job` resized to `nodes` instances of the same type.
fn job_at(job: &TrainingJob, nodes: usize) -> TrainingJob {
    TrainingJob {
        workload: job.workload.clone(),
        cluster: ClusterSpec::new(job.cluster.instance.clone(), nodes),
        strategy: job.strategy.clone(),
        accum_steps: job.accum_steps,
    }
}

/// Can the strategy's geometry be emitted at `nodes` at all? (The MiCS
/// partition size must divide the device count; memory feasibility is
/// checked separately by `simulate`.)
fn geometry_fits(job: &TrainingJob, nodes: usize) -> bool {
    let devices = job.cluster.instance.gpus_per_node * nodes;
    let p = match &job.strategy {
        crate::Strategy::Mics(cfg) => cfg.partition_size,
        _ => 1,
    };
    devices >= p && devices.is_multiple_of(p)
}

/// Simulate the all-to-all shard movement of a reshape onto a `nodes`-wide
/// world: every node of the destination geometry ingests its share of the
/// model states through its own NIC, concurrently — the same fabric model
/// training and peer-copy recovery use.
fn reshard_time(job: &TrainingJob, nodes: usize) -> SimTime {
    let cl = ClusterSpec::new(job.cluster.instance.clone(), nodes);
    let per_node = model_state_bytes(job) / nodes.max(1) as u64;
    let alpha = cl.latencies().inter;
    let mut sim = Sim::new();
    let fabric = cl.build_fabric(&mut sim, 1.0);
    for node in 0..nodes {
        let s = sim.add_stream(format!("reshard[{node}]"));
        sim.push(s, Op::transfer(fabric.nic[node], per_node, alpha));
    }
    sim.run().expect("reshard program cannot deadlock").makespan
}

/// Throughput (and iteration time) the elastic scheduler achieves with
/// `avail` nodes of capacity: the largest feasible world `≤ avail` that the
/// geometry and memory model admit, or `None` when even one node cannot
/// hold the job (progress stalls until capacity returns).
struct SpotRates {
    /// `avail nodes → (world used, samples/s, iter time)`.
    cache: HashMap<usize, Option<(usize, f64, SimTime)>>,
}

impl SpotRates {
    fn new() -> Self {
        SpotRates { cache: HashMap::new() }
    }

    fn at(&mut self, job: &TrainingJob, avail: usize) -> Option<(usize, f64, SimTime)> {
        if let Some(hit) = self.cache.get(&avail) {
            return *hit;
        }
        let mut resolved = None;
        for nodes in (1..=avail).rev() {
            if !geometry_fits(job, nodes) {
                continue;
            }
            if let Ok(r) = crate::simulate(&job_at(job, nodes)) {
                resolved = Some((nodes, r.samples_per_sec, r.iter_time));
                break;
            }
        }
        self.cache.insert(avail, resolved);
        resolved
    }
}

/// Walk a seeded spot capacity trace ([`FaultPlan::with_spot_trace`]) and
/// account goodput under `policy`.
///
/// The elastic policy reshapes at every capacity change; each transition is
/// a full stall of `reshard_time` (shard movement onto the destination
/// world's NICs) plus the interrupted iteration, and grows additionally pay
/// instance provisioning (the walker charges provisioning as part of the grow
/// stall — a deliberate, slightly pessimistic simplification that keeps the
/// timeline single-threaded). The static policy stalls whenever any slot is
/// away and pays a checkpoint reload (read + redone work since the last
/// periodic write) to resume. Replication-protected elastic runs checkpoint
/// at the dilated cadence; the static policy depends on checkpoints and
/// pays the base cadence. Everything is deterministic in the plan's seed.
pub fn simulate_elastic(
    job: &TrainingJob,
    trace: &FaultPlan,
    horizon: SimTime,
    policy: SpotPolicy,
) -> Result<ElasticReport, OomError> {
    let full = crate::simulate(job)?;
    let nodes = job.cluster.nodes;
    let mut rates = SpotRates::new();

    let mut away: BTreeSet<usize> = BTreeSet::new();
    let mut now = SimTime::ZERO;
    let mut idle_until = SimTime::ZERO;
    let mut progress_secs = 0.0f64;
    let mut stalled = SimTime::ZERO;
    let mut transition_overhead = SimTime::ZERO;
    let mut preemptions = 0usize;
    let mut grows = 0usize;
    let mut reshapes = 0usize;
    let mut min_nodes = nodes;
    // First preemption of the current static-policy outage — the phase the
    // checkpoint reload rewinds to on resume.
    let mut outage_began: Option<SimTime> = None;

    // Rate relative to the failure-free full cluster while `away` slots are
    // gone; also reports the world actually trained on.
    fn rel_rate(
        policy: SpotPolicy,
        rates: &mut SpotRates,
        job: &TrainingJob,
        full_sps: f64,
        nodes: usize,
        away: usize,
    ) -> (f64, usize) {
        match policy {
            SpotPolicy::Static => {
                if away == 0 {
                    (1.0, nodes)
                } else {
                    (0.0, nodes)
                }
            }
            SpotPolicy::Elastic => match rates.at(job, nodes - away) {
                Some((world, sps, _)) => (sps / full_sps, world),
                None => (0.0, nodes),
            },
        }
    }

    // Advance the timeline cursor to `to`: drain any transition stall
    // first, then make progress at `rate` for the remainder.
    let advance = |to: SimTime,
                   now: &mut SimTime,
                   idle_until: &mut SimTime,
                   (rate, world): (f64, usize),
                   progress_secs: &mut f64,
                   stalled: &mut SimTime,
                   min_nodes: &mut usize| {
        if *idle_until > *now {
            let idle_end = (*idle_until).min(to);
            *stalled += idle_end - *now;
            *now = idle_end;
        }
        if to > *now {
            let span = to - *now;
            if rate > 0.0 {
                *progress_secs += span.as_secs_f64() * rate;
                *min_nodes = (*min_nodes).min(world);
            } else {
                *stalled += span;
            }
            *now = to;
        }
    };

    for ev in trace.events() {
        if ev.at >= horizon {
            continue;
        }
        match ev.kind {
            FaultKind::Crash => {
                let r = rel_rate(policy, &mut rates, job, full.samples_per_sec, nodes, away.len());
                advance(
                    ev.at,
                    &mut now,
                    &mut idle_until,
                    r,
                    &mut progress_secs,
                    &mut stalled,
                    &mut min_nodes,
                );
                away.insert(ev.node);
                preemptions += 1;
                match policy {
                    SpotPolicy::Elastic => {
                        // Shrink onto the survivors: pay the interrupted
                        // iteration plus the reshard onto the new world.
                        let pre_iter = rates
                            .at(job, nodes - (away.len() - 1))
                            .map(|(_, _, it)| it)
                            .unwrap_or(full.iter_time);
                        let dest = rates.at(job, nodes - away.len());
                        let cost = match dest {
                            Some((world, _, _)) => pre_iter + reshard_time(job, world),
                            // Nothing fits on the survivors: no reshape to
                            // run, progress simply stalls until capacity
                            // returns.
                            None => SimTime::ZERO,
                        };
                        if cost > SimTime::ZERO {
                            reshapes += 1;
                            transition_overhead += cost;
                            idle_until = idle_until.max(now) + cost;
                        }
                    }
                    SpotPolicy::Static => {
                        outage_began.get_or_insert(ev.at);
                    }
                }
            }
            FaultKind::Return => {
                let r = rel_rate(policy, &mut rates, job, full.samples_per_sec, nodes, away.len());
                advance(
                    ev.at,
                    &mut now,
                    &mut idle_until,
                    r,
                    &mut progress_secs,
                    &mut stalled,
                    &mut min_nodes,
                );
                if !away.remove(&ev.node) {
                    continue;
                }
                grows += 1;
                match policy {
                    SpotPolicy::Elastic => {
                        let dest = rates.at(job, nodes - away.len());
                        if let Some((world, _, iter)) = dest {
                            let cost = NODE_PROVISION + reshard_time(job, world) + iter;
                            reshapes += 1;
                            transition_overhead += cost;
                            idle_until = idle_until.max(now) + cost;
                        }
                    }
                    SpotPolicy::Static => {
                        if away.is_empty() {
                            // Whole cluster back: provision the rejoined
                            // instance, reload the checkpoint everywhere,
                            // and redo the work since the write preceding
                            // the outage.
                            let began = outage_began.take().unwrap_or(ev.at);
                            let redo = SimTime::from_nanos(
                                began.as_nanos() % CHECKPOINT_INTERVAL.as_nanos(),
                            );
                            let cost = NODE_PROVISION + checkpoint_read(job) + redo;
                            transition_overhead += cost;
                            idle_until = idle_until.max(now) + cost;
                        }
                    }
                }
            }
        }
    }
    let r = rel_rate(policy, &mut rates, job, full.samples_per_sec, nodes, away.len());
    advance(
        horizon,
        &mut now,
        &mut idle_until,
        r,
        &mut progress_secs,
        &mut stalled,
        &mut min_nodes,
    );

    let checkpoint_overhead = checkpoint_overhead(job, policy == SpotPolicy::Elastic, horizon);
    let goodput_fraction =
        ((progress_secs - checkpoint_overhead.as_secs_f64()) / horizon.as_secs_f64()).max(0.0);
    Ok(ElasticReport {
        label: full.label,
        policy,
        preemptions,
        grows,
        reshapes,
        transition_overhead,
        stalled,
        checkpoint_overhead,
        min_nodes,
        horizon,
        goodput_fraction,
        effective_samples_per_sec: full.samples_per_sec * goodput_fraction,
        fault_fingerprint: trace.fingerprint(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MicsConfig, Strategy, ZeroStage};
    use mics_cluster::{ClusterSpec, InstanceType};
    use mics_model::TransformerConfig;

    fn job(nodes: usize, strategy: Strategy) -> TrainingJob {
        TrainingJob {
            workload: TransformerConfig::bert_10b().workload(8),
            cluster: ClusterSpec::new(InstanceType::p3dn_24xlarge(), nodes),
            strategy,
            accum_steps: 4,
        }
    }

    #[test]
    fn policies_follow_replication_topology() {
        let mics = job(8, Strategy::Mics(MicsConfig::paper_defaults(8)));
        assert_eq!(policy_for(&mics), RecoveryPolicy::PeerCopy { replication: 8 });
        let z3 = job(8, Strategy::Zero(ZeroStage::Three));
        assert_eq!(policy_for(&z3), RecoveryPolicy::CheckpointReload);
        // MiCS degenerates to ZeRO-3's policy when p = n (no replicas).
        let mics_pn = job(8, Strategy::Mics(MicsConfig::paper_defaults(64)));
        assert_eq!(policy_for(&mics_pn), RecoveryPolicy::CheckpointReload);
        // DDP replicates everything: peer copy with n replicas.
        let ddp = job(8, Strategy::Ddp);
        assert_eq!(policy_for(&ddp), RecoveryPolicy::PeerCopy { replication: 64 });
        // Single node: replicas die with the node, regardless of p.
        let single = job(1, Strategy::Mics(MicsConfig::paper_defaults(1)));
        assert_eq!(policy_for(&single), RecoveryPolicy::CheckpointReload);
    }

    #[test]
    fn donors_are_off_node_replication_peers() {
        let j = job(8, Strategy::Mics(MicsConfig::paper_defaults(8)));
        for lost in j.cluster.ranks_on_node(NodeId(0)) {
            let donor = off_node_donor(&j, lost).unwrap();
            assert_ne!(j.cluster.node_of(donor), NodeId(0));
            assert_eq!(donor.0 % 8, lost.0 % 8, "donor must hold the same shard");
        }
    }

    #[test]
    fn mics_recovers_strictly_faster_than_zero3() {
        // The acceptance bar: BERT 10B on 64 GPUs — restoring a lost node
        // from replication-group peers beats a cluster-wide checkpoint
        // reload plus redone work.
        let iter = SimTime::from_secs(2);
        let mics = recovery_time(&job(8, Strategy::Mics(MicsConfig::paper_defaults(8))), iter);
        let z3 = recovery_time(&job(8, Strategy::Zero(ZeroStage::Three)), iter);
        assert!(
            mics.total() < z3.total(),
            "MiCS {:?} not faster than ZeRO-3 {:?}",
            mics.total(),
            z3.total()
        );
        // The structural reason: MiCS redoes one iteration, ZeRO-3 redoes
        // half a checkpoint interval.
        assert!(mics.lost_work < z3.lost_work);
    }

    #[test]
    fn peer_copy_is_ingress_bound() {
        // k ranks × (16ψ/p) bytes through one 12.5 GB/s NIC: 8 × 20 GB at
        // 12.5 GB/s ≈ 12.8 s. Provisioning dominates; the copy must land in
        // the right decade and scale down with p.
        let iter = SimTime::from_secs(2);
        let p8 = recovery_time(&job(8, Strategy::Mics(MicsConfig::paper_defaults(8))), iter);
        let p16 = recovery_time(&job(8, Strategy::Mics(MicsConfig::paper_defaults(16))), iter);
        assert!(p8.state_restore > SimTime::from_secs(10));
        assert!(p8.state_restore < SimTime::from_secs(20));
        assert!(
            p16.state_restore < p8.state_restore,
            "larger partition groups leave smaller per-rank shards to copy"
        );
    }

    #[test]
    fn failure_timeline_is_deterministic() {
        let j = job(2, Strategy::Mics(MicsConfig::paper_defaults(8)));
        let horizon = SimTime::from_secs(6 * 3600);
        let run = || {
            let plan = poisson_failures(&j, 77, SimTime::from_secs(3600), horizon);
            simulate_with_failures(&j, &plan, horizon).unwrap()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.failures > 0, "6 h horizon at 1 h MTBF should fail at least once");
        let other = {
            let plan = poisson_failures(&j, 78, SimTime::from_secs(3600), horizon);
            simulate_with_failures(&j, &plan, horizon).unwrap()
        };
        assert_ne!(a.fault_fingerprint, other.fault_fingerprint);
    }

    #[test]
    fn elastic_beats_static_on_spot_capacity() {
        // The elastic dividend: a MiCS job that keeps training on the
        // surviving capacity out-earns one that stalls until every slot
        // comes back — on the same seeded spot trace.
        let j = job(4, Strategy::Mics(MicsConfig::paper_defaults(8)));
        let horizon = SimTime::from_secs(24 * 3600);
        let plan =
            spot_plan(&j, 11, SimTime::from_secs(2 * 3600), SimTime::from_secs(1800), horizon);
        let el = simulate_elastic(&j, &plan, horizon, SpotPolicy::Elastic).unwrap();
        let st = simulate_elastic(&j, &plan, horizon, SpotPolicy::Static).unwrap();
        assert!(el.preemptions > 0, "24 h at 2 h MTBF should preempt");
        assert_eq!(el.preemptions, st.preemptions, "same trace, same preemptions");
        assert!(
            el.goodput_fraction > st.goodput_fraction,
            "elastic {} should beat static {}",
            el.goodput_fraction,
            st.goodput_fraction
        );
        // Elastic actually shrank: it trained below the full node count and
        // executed reshapes in both directions.
        assert!(el.min_nodes < 4, "elastic should have trained on survivors");
        assert_eq!(st.min_nodes, 4, "static never changes geometry");
        assert!(el.reshapes >= el.grows + el.preemptions.min(el.grows));
        assert_eq!(st.reshapes, 0);
    }

    #[test]
    fn elastic_spot_walk_is_deterministic() {
        let j = job(2, Strategy::Mics(MicsConfig::paper_defaults(8)));
        let horizon = SimTime::from_secs(12 * 3600);
        let run = |seed| {
            let plan =
                spot_plan(&j, seed, SimTime::from_secs(3600), SimTime::from_secs(600), horizon);
            simulate_elastic(&j, &plan, horizon, SpotPolicy::Elastic).unwrap()
        };
        let a = run(5);
        assert_eq!(a, run(5));
        assert_ne!(a.fault_fingerprint, run(6).fault_fingerprint);
    }

    #[test]
    fn elastic_goodput_degrades_with_spot_churn() {
        let j = job(4, Strategy::Mics(MicsConfig::paper_defaults(8)));
        let horizon = SimTime::from_secs(24 * 3600);
        let good = |mtbf_secs: u64| {
            let plan =
                spot_plan(&j, 11, SimTime::from_secs(mtbf_secs), SimTime::from_secs(1800), horizon);
            simulate_elastic(&j, &plan, horizon, SpotPolicy::Elastic).unwrap().goodput_fraction
        };
        let rare = good(12 * 3600);
        let churny = good(3600);
        assert!(rare > churny, "{rare} vs {churny}");
    }

    #[test]
    fn quiet_trace_gives_near_full_goodput_and_no_reshapes() {
        let j = job(2, Strategy::Mics(MicsConfig::paper_defaults(8)));
        let horizon = SimTime::from_secs(3600);
        let plan = FaultPlan::new(1); // no events
        for policy in [SpotPolicy::Elastic, SpotPolicy::Static] {
            let r = simulate_elastic(&j, &plan, horizon, policy).unwrap();
            assert_eq!(r.preemptions, 0);
            assert_eq!(r.reshapes, 0);
            assert_eq!(r.min_nodes, 2);
            assert!(r.goodput_fraction > 0.9, "{policy:?}: {}", r.goodput_fraction);
            assert!(r.goodput_fraction <= 1.0);
        }
    }

    #[test]
    fn goodput_degrades_with_failure_rate_and_mics_holds_more() {
        let mics = job(2, Strategy::Mics(MicsConfig::paper_defaults(8)));
        let z3 = job(2, Strategy::Zero(ZeroStage::Three));
        let horizon = SimTime::from_secs(24 * 3600);
        let good = |j: &TrainingJob, mtbf_secs: u64| {
            let plan = poisson_failures(j, 7, SimTime::from_secs(mtbf_secs), horizon);
            simulate_with_failures(j, &plan, horizon).unwrap().goodput_fraction
        };
        let mics_rare = good(&mics, 12 * 3600);
        let mics_often = good(&mics, 3600);
        assert!(mics_rare > mics_often, "{mics_rare} vs {mics_often}");
        // Same seeded timeline: MiCS keeps more goodput than ZeRO-3.
        let z3_often = good(&z3, 3600);
        assert!(mics_often > z3_often, "{mics_often} vs {z3_often}");
    }
}
