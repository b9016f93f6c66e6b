//! Strategy configuration: MiCS knobs and the baseline zoo.

use crate::json::{Json, ToJson};
use mics_compress::{CompressionConfig, QuantScheme};
use mics_simnet::SimTime;

/// Which data-parallel system to emulate.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Classic data parallelism (PyTorch-DDP-like): full model states on
    /// every device, boundary all-reduce.
    Ddp,
    /// DeepSpeed ZeRO at a given stage, with DeepSpeed's default behaviours
    /// (coarse-grained stream synchronization, on-the-fly fetch decisions,
    /// dynamic allocator — the §4 baseline).
    Zero(ZeroStage),
    /// ZeRO-3 with ZeRO++-style quantized collectives (qwZ/qgZ): identical
    /// execution plan to [`Strategy::Zero`] at stage 3, but parameter
    /// gathers and/or gradient reductions travel compressed.
    ZeroCompressed(CompressionConfig),
    /// MiCS (this paper).
    Mics(MicsConfig),
}

/// ZeRO memory-optimization stages (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZeroStage {
    /// Optimizer states partitioned across all devices.
    One,
    /// Gradients + optimizer states partitioned.
    Two,
    /// Parameters, gradients and optimizer states all partitioned.
    Three,
}

/// MiCS configuration: the three design components of §3 plus the §4
/// implementation optimizations, each independently switchable so the
/// ablation experiments (§5.2, §5.3) are plain parameter sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct MicsConfig {
    /// Partition group size `p` (devices sharing one model-state replica).
    pub partition_size: usize,
    /// §3.3 hierarchical all-gather for groups spanning multiple nodes.
    pub hierarchical_allgather: bool,
    /// §3.4 2-hop gradient synchronization (off = the "alternative
    /// schedule": per-micro-step all-reduce over all devices).
    pub two_hop_sync: bool,
    /// §4 fine-grained `wait_event`/`wait_stream` synchronization enabling
    /// deep compute/communication overlap (off = coarse device sync).
    pub fine_grained_sync: bool,
    /// §4 precomputed & cached fetch/release decisions (off = on-the-fly
    /// decision making with its per-operation bubbles).
    pub cached_decisions: bool,
    /// §4 coalesced communication APIs for batched small collectives.
    pub coalesced_comm: bool,
    /// §4 pre-allocated contiguous memory pools (off = dynamic allocator
    /// with fragmentation overhead).
    pub arena_memory: bool,
    /// ZeRO++-style quantized collectives (`None` = full-precision wire, the
    /// paper's configuration).
    pub compression: Option<CompressionConfig>,
}

impl MicsConfig {
    /// The full MiCS system as evaluated in §5, with a given partition
    /// group size.
    pub fn paper_defaults(partition_size: usize) -> Self {
        MicsConfig {
            partition_size,
            hierarchical_allgather: true,
            two_hop_sync: true,
            fine_grained_sync: true,
            cached_decisions: true,
            coalesced_comm: true,
            arena_memory: true,
            compression: None,
        }
    }

    /// The full MiCS system with quantized collectives layered on top.
    pub fn compressed(partition_size: usize, compression: CompressionConfig) -> Self {
        MicsConfig { compression: Some(compression), ..Self::paper_defaults(partition_size) }
    }

    /// "MiCS (ZeRO-3)" from §5.3 / Figure 14: partition over all `n`
    /// devices and disable the §3 design components (scale-aware
    /// partitioning, hierarchical communication, 2-hop has no effect at
    /// p = n) but keep the §4 implementation optimizations — isolating
    /// §4 from §3.
    pub fn zero3_with_impl_opts(n: usize) -> Self {
        MicsConfig { partition_size: n, hierarchical_allgather: false, ..Self::paper_defaults(n) }
    }

    /// Decode the [`ToJson`] encoding (`None` on shape mismatch).
    pub fn from_json(doc: &Json) -> Option<Self> {
        Some(MicsConfig {
            partition_size: doc.get("partition_size")?.as_num()? as usize,
            hierarchical_allgather: doc.get("hierarchical_allgather")?.as_bool()?,
            two_hop_sync: doc.get("two_hop_sync")?.as_bool()?,
            fine_grained_sync: doc.get("fine_grained_sync")?.as_bool()?,
            cached_decisions: doc.get("cached_decisions")?.as_bool()?,
            coalesced_comm: doc.get("coalesced_comm")?.as_bool()?,
            arena_memory: doc.get("arena_memory")?.as_bool()?,
            compression: match doc.get("compression")? {
                Json::Null => None,
                c => Some(compression_from_json(c)?),
            },
        })
    }
}

impl ToJson for MicsConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("partition_size", Json::Num(self.partition_size as f64)),
            ("hierarchical_allgather", Json::Bool(self.hierarchical_allgather)),
            ("two_hop_sync", Json::Bool(self.two_hop_sync)),
            ("fine_grained_sync", Json::Bool(self.fine_grained_sync)),
            ("cached_decisions", Json::Bool(self.cached_decisions)),
            ("coalesced_comm", Json::Bool(self.coalesced_comm)),
            ("arena_memory", Json::Bool(self.arena_memory)),
            (
                "compression",
                match &self.compression {
                    None => Json::Null,
                    Some(c) => c.to_json(),
                },
            ),
        ])
    }
}

impl ToJson for CompressionConfig {
    fn to_json(&self) -> Json {
        let (scheme, block) = match self.scheme {
            QuantScheme::F16 => ("f16", Json::Null),
            QuantScheme::Int8 { block } => ("int8", Json::Num(block as f64)),
            QuantScheme::Int4 { block } => ("int4", Json::Num(block as f64)),
        };
        Json::obj([
            ("scheme", Json::from(scheme)),
            ("block", block),
            ("weights", Json::Bool(self.weights)),
            ("grads", Json::Bool(self.grads)),
        ])
    }
}

/// Decode the [`ToJson`] encoding of a [`CompressionConfig`].
pub fn compression_from_json(doc: &Json) -> Option<CompressionConfig> {
    let block = || doc.get("block").and_then(Json::as_num).map(|b| b as usize);
    let scheme = match doc.get("scheme")?.as_str()? {
        "f16" => QuantScheme::F16,
        "int8" => QuantScheme::Int8 { block: block()? },
        "int4" => QuantScheme::Int4 { block: block()? },
        _ => return None,
    };
    Some(CompressionConfig {
        scheme,
        weights: doc.get("weights")?.as_bool()?,
        grads: doc.get("grads")?.as_bool()?,
    })
}

/// Resolved execution knobs shared by every DP strategy, derived from
/// [`Strategy`] for a cluster of `n` devices.
#[derive(Debug, Clone, Copy)]
pub struct DpPlan {
    /// Shard count for parameters (1 = fully replicated).
    pub p_params: usize,
    /// Shard count for gradients.
    pub p_grads: usize,
    /// Shard count for optimizer states.
    pub p_opt: usize,
    /// Per-micro-step gradient handling.
    pub micro_sync: MicroSync,
    /// Use the hierarchical all-gather for parameter gathering when the
    /// partition group spans nodes.
    pub hierarchical: bool,
    /// Comm-stream lookahead in layers (0 = coarse sync, no overlap).
    pub prefetch_depth: usize,
    /// Host-side think time before each collective launch.
    pub decision_overhead: SimTime,
    /// Batched small collectives pay one launch instead of many.
    pub coalesced: bool,
    /// Arena memory (affects the fragmentation factor of the memory model).
    pub arena_memory: bool,
    /// Quantized-collective configuration (`None` = fp32/fp16 wire).
    pub compression: Option<CompressionConfig>,
}

/// Gradient synchronization performed inside each micro-step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroSync {
    /// Accumulate locally; all synchronization happens at the boundary
    /// (DDP, ZeRO-1, ZeRO-2).
    LocalAccumulate,
    /// All-reduce over **all** devices every micro-step, then keep own
    /// shard (DeepSpeed ZeRO-3's default; §3.4's "alternative schedule").
    GlobalAllReduce,
    /// Reduce-scatter within the partition group every micro-step; the
    /// cross-replication-group all-reduce waits for the boundary (MiCS
    /// 2-hop, §3.4).
    PartitionReduceScatter,
}

/// A MiCS partition size that does not divide the cluster's device count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionError {
    /// The partition group size asked for.
    pub partition_size: usize,
    /// Devices in the cluster.
    pub devices: usize,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (p, n) = (self.partition_size, self.devices);
        write!(f, "partition size {p} does not divide the {n}-device cluster")
    }
}

impl std::error::Error for PartitionError {}

impl Strategy {
    /// The one partition rule: a MiCS partition size must divide the `n`
    /// devices of the cluster. Every other strategy fits any cluster.
    pub fn check_partition(&self, n: usize) -> Result<(), PartitionError> {
        match self {
            Strategy::Mics(cfg)
                if cfg.partition_size == 0 || !n.is_multiple_of(cfg.partition_size) =>
            {
                Err(PartitionError { partition_size: cfg.partition_size, devices: n })
            }
            _ => Ok(()),
        }
    }

    /// Resolve to execution knobs for a cluster of `n` devices.
    ///
    /// # Panics
    /// Panics if a MiCS partition size does not divide `n`
    /// ([`Strategy::check_partition`]).
    pub fn plan(&self, n: usize) -> DpPlan {
        if let Err(e) = self.check_partition(n) {
            panic!("{e}");
        }
        // Calibrated host-side overheads: DeepSpeed's on-the-fly
        // fetch/release decision making (Python control plane) versus
        // MiCS's precomputed schedule (§4 "precomputing and caching the
        // decisions").
        let slow_host = SimTime::from_micros(150);
        let fast_host = SimTime::from_micros(15);
        match self {
            Strategy::Ddp => DpPlan {
                p_params: 1,
                p_grads: 1,
                p_opt: 1,
                micro_sync: MicroSync::LocalAccumulate,
                hierarchical: false,
                prefetch_depth: 2,
                decision_overhead: fast_host,
                coalesced: false,
                arena_memory: false,
                compression: None,
            },
            Strategy::Zero(stage) => {
                let (p_params, p_grads, p_opt, micro) = match stage {
                    ZeroStage::One => (1, 1, n, MicroSync::LocalAccumulate),
                    ZeroStage::Two => (1, n, n, MicroSync::LocalAccumulate),
                    ZeroStage::Three => (n, n, n, MicroSync::GlobalAllReduce),
                };
                DpPlan {
                    p_params,
                    p_grads,
                    p_opt,
                    micro_sync: micro,
                    hierarchical: false,
                    // Coarse device/stream synchronization limits the
                    // communication lane to one bucket of lookahead.
                    prefetch_depth: 1,
                    decision_overhead: slow_host,
                    coalesced: false,
                    arena_memory: false,
                    compression: None,
                }
            }
            Strategy::ZeroCompressed(c) => {
                let mut plan = Strategy::Zero(ZeroStage::Three).plan(n);
                plan.compression = Some(*c);
                plan
            }
            Strategy::Mics(cfg) => DpPlan {
                p_params: cfg.partition_size,
                p_grads: cfg.partition_size,
                p_opt: cfg.partition_size,
                micro_sync: if cfg.two_hop_sync {
                    MicroSync::PartitionReduceScatter
                } else {
                    MicroSync::GlobalAllReduce
                },
                hierarchical: cfg.hierarchical_allgather,
                prefetch_depth: if cfg.fine_grained_sync { 2 } else { 1 },
                decision_overhead: if cfg.cached_decisions { fast_host } else { slow_host },
                coalesced: cfg.coalesced_comm,
                arena_memory: cfg.arena_memory,
                compression: cfg.compression,
            },
        }
    }

    /// Parse the CLI/wire strategy grammar: `ddp`, `zero1`, `zero2`,
    /// `zero3`, or `mics:<p>` (paper-default MiCS with partition size `p`).
    /// Shared by `mics-sim --strategy` and the planner service so both
    /// surfaces accept exactly the same spellings.
    pub fn parse(spec: &str) -> Result<Strategy, String> {
        match spec {
            "ddp" => Ok(Strategy::Ddp),
            "zero1" => Ok(Strategy::Zero(ZeroStage::One)),
            "zero2" => Ok(Strategy::Zero(ZeroStage::Two)),
            "zero3" => Ok(Strategy::Zero(ZeroStage::Three)),
            s if s.starts_with("mics:") => {
                let p: usize = s["mics:".len()..]
                    .parse()
                    .map_err(|_| format!("bad partition size in '{s}'"))?;
                Ok(Strategy::Mics(MicsConfig::paper_defaults(p)))
            }
            other => Err(format!(
                "unknown strategy '{other}' (expected mics:<p>, zero1, zero2, zero3, or ddp)"
            )),
        }
    }

    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            Strategy::Ddp => "DDP".into(),
            Strategy::Zero(ZeroStage::One) => "ZeRO-1".into(),
            Strategy::Zero(ZeroStage::Two) => "ZeRO-2".into(),
            Strategy::Zero(ZeroStage::Three) => "ZeRO-3".into(),
            Strategy::ZeroCompressed(c) => format!("ZeRO-3+{}", c.label()),
            Strategy::Mics(c) => match &c.compression {
                Some(q) => format!("MiCS(p={})+{}", c.partition_size, q.label()),
                None => format!("MiCS(p={})", c.partition_size),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_stage_sharding_progression() {
        let n = 64;
        let z1 = Strategy::Zero(ZeroStage::One).plan(n);
        let z2 = Strategy::Zero(ZeroStage::Two).plan(n);
        let z3 = Strategy::Zero(ZeroStage::Three).plan(n);
        assert_eq!((z1.p_params, z1.p_grads, z1.p_opt), (1, 1, 64));
        assert_eq!((z2.p_params, z2.p_grads, z2.p_opt), (1, 64, 64));
        assert_eq!((z3.p_params, z3.p_grads, z3.p_opt), (64, 64, 64));
    }

    #[test]
    fn mics_plan_reflects_knobs() {
        let cfg = MicsConfig::paper_defaults(8);
        let plan = Strategy::Mics(cfg).plan(64);
        assert_eq!(plan.p_params, 8);
        assert_eq!(plan.micro_sync, MicroSync::PartitionReduceScatter);
        assert!(plan.hierarchical);
        assert!(plan.prefetch_depth > 0);

        let mut no2hop = MicsConfig::paper_defaults(8);
        no2hop.two_hop_sync = false;
        let plan = Strategy::Mics(no2hop).plan(64);
        assert_eq!(plan.micro_sync, MicroSync::GlobalAllReduce);
    }

    #[test]
    fn deepspeed_baseline_is_coarse_and_slow_host() {
        let z3 = Strategy::Zero(ZeroStage::Three).plan(16);
        let mics = Strategy::Mics(MicsConfig::paper_defaults(16)).plan(16);
        assert!(z3.prefetch_depth < mics.prefetch_depth);
        assert!(z3.decision_overhead > mics.decision_overhead);
        assert!(!z3.arena_memory && mics.arena_memory);
    }

    #[test]
    fn mics_zero3_mode_partitions_over_cluster() {
        let cfg = MicsConfig::zero3_with_impl_opts(128);
        assert_eq!(cfg.partition_size, 128);
        assert!(cfg.fine_grained_sync && cfg.cached_decisions);
    }

    #[test]
    #[should_panic(expected = "does not divide the 64-device cluster")]
    fn invalid_partition_size_panics() {
        let _ = Strategy::Mics(MicsConfig::paper_defaults(12)).plan(64);
    }

    #[test]
    fn labels() {
        assert_eq!(Strategy::Ddp.label(), "DDP");
        assert_eq!(Strategy::Zero(ZeroStage::Three).label(), "ZeRO-3");
        assert_eq!(Strategy::Mics(MicsConfig::paper_defaults(16)).label(), "MiCS(p=16)");
    }

    #[test]
    fn mics_config_json_round_trips() {
        let plain = MicsConfig::paper_defaults(8);
        assert_eq!(MicsConfig::from_json(&plain.to_json()), Some(plain.clone()));
        let mut quantized =
            MicsConfig::compressed(16, CompressionConfig::both(QuantScheme::Int4 { block: 64 }));
        quantized.two_hop_sync = false;
        assert_eq!(MicsConfig::from_json(&quantized.to_json()), Some(quantized.clone()));
        assert_eq!(MicsConfig::from_json(&Json::Null), None);
        // A flag is a JSON boolean: a number or a string fails the decode
        // instead of reading as `false`.
        let text = quantized.to_json().emit();
        for (flag, bad) in [
            ("\"two_hop_sync\":false", "\"two_hop_sync\":1"),
            ("\"arena_memory\":true", "\"arena_memory\":null"),
            ("\"grads\":true", "\"grads\":\"true\""),
            ("\"weights\":true", "\"weights\":1"),
        ] {
            assert!(text.contains(flag), "{flag}");
            let doc = Json::parse(&text.replace(flag, bad)).unwrap();
            assert_eq!(MicsConfig::from_json(&doc), None, "{bad}");
        }
    }

    #[test]
    fn parse_round_trips_the_cli_grammar() {
        assert_eq!(Strategy::parse("ddp").unwrap(), Strategy::Ddp);
        assert_eq!(Strategy::parse("zero1").unwrap(), Strategy::Zero(ZeroStage::One));
        assert_eq!(Strategy::parse("zero3").unwrap(), Strategy::Zero(ZeroStage::Three));
        assert_eq!(
            Strategy::parse("mics:16").unwrap(),
            Strategy::Mics(MicsConfig::paper_defaults(16))
        );
        assert!(Strategy::parse("mics:x").is_err());
        assert!(Strategy::parse("zero9").is_err());
    }

    #[test]
    fn compression_knobs_flow_into_plan_and_label() {
        use mics_compress::{CompressionConfig, QuantScheme};
        let c = CompressionConfig::both(QuantScheme::int8());
        let zq = Strategy::ZeroCompressed(c);
        assert_eq!(zq.label(), "ZeRO-3+int8/128·wg");
        let plan = zq.plan(16);
        // Identical plan to ZeRO-3 except for the compressed wire.
        let z3 = Strategy::Zero(ZeroStage::Three).plan(16);
        assert_eq!((plan.p_params, plan.p_grads, plan.p_opt), (16, 16, 16));
        assert_eq!(plan.micro_sync, z3.micro_sync);
        assert_eq!(plan.compression, Some(c));
        assert_eq!(z3.compression, None);

        let mics = Strategy::Mics(MicsConfig::compressed(8, c));
        assert_eq!(mics.label(), "MiCS(p=8)+int8/128·wg");
        assert_eq!(mics.plan(64).compression, Some(c));
        assert_eq!(Strategy::Mics(MicsConfig::paper_defaults(8)).plan(64).compression, None);
    }
}
