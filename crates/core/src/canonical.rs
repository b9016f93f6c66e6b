//! Canonical config hashing — the planner's memoization key.
//!
//! The planner service memoizes `simulate`/`tune` results keyed by the
//! *meaning* of a query, not its wire spelling: two requests that decode to
//! semantically equal configs must collide in the cache even when they were
//! built by different code paths (field order on the wire, `-0.0` vs `0.0`,
//! a derate vector spelled `[]` vs `[1.0, 1.0]`). This module defines that
//! key: a [`Canonical`] trait that folds a value's semantic content into a
//! [`CanonicalHasher`] (FNV-1a over a fixed field order with normalized
//! floats), and a 128-bit [`CanonicalKey`] (two FNV-1a lanes under
//! different seeds, folded in one walk) wide enough that accidental
//! collisions — which would silently serve the wrong plan from cache — are
//! out of the picture.

use crate::config::{MicsConfig, Strategy, ZeroStage};
use crate::TrainingJob;
use mics_cluster::{ClusterSpec, InstanceType, NodeId};
use mics_compress::{CompressionConfig, QuantScheme};
use mics_model::{LayerSpec, WorkloadSpec};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The second lane's basis: FNV-1a's offset basis with the little-endian
/// bytes of a seed folded in, which decorrelates the lane from the first.
const LANE2_BASIS: u64 = {
    let seed = 0x9e37_79b9_7f4a_7c15_u64.to_le_bytes();
    let mut h = FNV_OFFSET;
    let mut i = 0;
    while i < seed.len() {
        h = (h ^ seed[i] as u64).wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
};

/// Streaming two-lane FNV-1a hasher with normalizing writers for every
/// scalar a config can contain. All multi-byte values are folded in a fixed
/// little-endian order, so the digest is stable across platforms and runs
/// (unlike `std::hash::Hasher` implementations, which are free to change).
#[derive(Debug, Clone)]
pub struct CanonicalHasher {
    lanes: [u64; 2],
}

impl Default for CanonicalHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl CanonicalHasher {
    /// A hasher whose first lane starts at the standard FNV-1a offset
    /// basis.
    pub fn new() -> Self {
        CanonicalHasher { lanes: [FNV_OFFSET, LANE2_BASIS] }
    }

    /// Fold raw bytes into both lanes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let [mut a, mut b] = self.lanes;
        for &byte in bytes {
            a = (a ^ byte as u64).wrapping_mul(FNV_PRIME);
            b = (b ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
        self.lanes = [a, b];
    }

    /// Fold a `u64` (little-endian).
    pub fn write_u64(&mut self, x: u64) {
        self.write_bytes(&x.to_le_bytes());
    }

    /// Fold a `usize` (widened, so 32/64-bit hosts agree).
    pub fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Fold a `bool`.
    pub fn write_bool(&mut self, x: bool) {
        self.write_bytes(&[x as u8]);
    }

    /// Fold a small structural tag (enum discriminant, length prefix).
    pub fn write_tag(&mut self, tag: u8) {
        self.write_bytes(&[tag]);
    }

    /// Fold an `f64` by *value*, not representation: `-0.0` hashes like
    /// `0.0` and every NaN hashes like one canonical NaN, so float
    /// formatting round-trips (parse → re-emit → parse) cannot split the
    /// cache.
    pub fn write_f64(&mut self, x: f64) {
        let bits = if x == 0.0 {
            0u64 // collapses -0.0
        } else if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        };
        self.write_u64(bits);
    }

    /// Fold a string (length-prefixed so `"ab","c"` ≠ `"a","bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The first lane's digest.
    pub fn finish(&self) -> u64 {
        self.lanes[0]
    }

    /// Both lanes' digests: the cache key.
    pub fn key(&self) -> CanonicalKey {
        CanonicalKey(self.lanes)
    }
}

/// A 128-bit canonical digest: the [`Canonical`] walk hashed into two
/// lanes under independent seeds. 64 bits is enough for a *distribution* key but not
/// for a correctness-bearing cache key (a collision silently returns the
/// wrong plan); two lanes put the birthday bound far beyond any realistic
/// query volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalKey(pub [u64; 2]);

impl std::fmt::Display for CanonicalKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// Values with a stable semantic digest.
///
/// Implementations fold every field that affects simulation into the hasher
/// in a fixed order — and *only* those fields (display-only strings like
/// [`WorkloadSpec::name`] are excluded, so renaming a model does not defeat
/// memoization).
pub trait Canonical {
    /// Fold this value's semantic content into `h`.
    fn canonicalize(&self, h: &mut CanonicalHasher);

    /// One-lane digest (for tests and non-correctness-bearing uses).
    fn canonical_hash(&self) -> u64 {
        let mut h = CanonicalHasher::new();
        self.canonicalize(&mut h);
        h.finish()
    }

    /// The two-lane cache key.
    fn canonical_key(&self) -> CanonicalKey {
        let mut h = CanonicalHasher::new();
        self.canonicalize(&mut h);
        h.key()
    }
}

impl<T: Canonical> Canonical for Option<T> {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        match self {
            None => h.write_tag(0),
            Some(v) => {
                h.write_tag(1);
                v.canonicalize(h);
            }
        }
    }
}

impl Canonical for QuantScheme {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        match self {
            QuantScheme::F16 => h.write_tag(0),
            QuantScheme::Int8 { block } => {
                h.write_tag(1);
                h.write_usize(*block);
            }
            QuantScheme::Int4 { block } => {
                h.write_tag(2);
                h.write_usize(*block);
            }
        }
    }
}

impl Canonical for CompressionConfig {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        self.scheme.canonicalize(h);
        h.write_bool(self.weights);
        h.write_bool(self.grads);
    }
}

impl Canonical for ZeroStage {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.write_tag(match self {
            ZeroStage::One => 1,
            ZeroStage::Two => 2,
            ZeroStage::Three => 3,
        });
    }
}

impl Canonical for MicsConfig {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.write_usize(self.partition_size);
        h.write_bool(self.hierarchical_allgather);
        h.write_bool(self.two_hop_sync);
        h.write_bool(self.fine_grained_sync);
        h.write_bool(self.cached_decisions);
        h.write_bool(self.coalesced_comm);
        h.write_bool(self.arena_memory);
        self.compression.canonicalize(h);
    }
}

impl Canonical for Strategy {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        match self {
            Strategy::Ddp => h.write_tag(0),
            Strategy::Zero(stage) => {
                h.write_tag(1);
                stage.canonicalize(h);
            }
            Strategy::ZeroCompressed(c) => {
                h.write_tag(2);
                c.canonicalize(h);
            }
            Strategy::Mics(cfg) => {
                h.write_tag(3);
                cfg.canonicalize(h);
            }
        }
    }
}

impl Canonical for InstanceType {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        // The name is semantic here: it is the only field distinguishing two
        // hypothetical instance types tuned to identical numbers, and every
        // numeric field rides along anyway so edited presets differ too.
        h.write_str(self.name);
        h.write_usize(self.gpus_per_node);
        h.write_u64(self.gpu_mem_bytes);
        h.write_f64(self.peak_fp16_flops);
        h.write_f64(self.peak_fp32_flops);
        h.write_f64(self.gemm_efficiency);
        h.write_f64(self.nvlink_fabric_bw);
        h.write_f64(self.nic_bw);
        h.write_f64(self.memcpy_bw);
        h.write_u64(self.alpha_intra.as_nanos());
        h.write_u64(self.alpha_inter.as_nanos());
        h.write_u64(self.launch_overhead.as_nanos());
    }
}

impl Canonical for ClusterSpec {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        self.instance.canonicalize(h);
        h.write_usize(self.nodes);
        // Derates are normalized: only nodes actually degraded contribute,
        // so an empty derate vector and an explicit all-1.0 vector (what
        // `with_slow_node(_, 1.0)` materializes) hash identically.
        for node in 0..self.nodes {
            let derate = self.nic_derate(NodeId(node));
            if derate != 1.0 {
                h.write_usize(node);
                h.write_f64(derate);
            }
        }
        h.write_tag(0xfe); // close the variable-length derate run
    }
}

impl Canonical for LayerSpec {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.write_u64(self.params);
        h.write_f64(self.fwd_flops);
        h.write_f64(self.bwd_flops);
        h.write_f64(self.recompute_flops);
        h.write_u64(self.checkpoint_bytes);
        h.write_u64(self.working_bytes);
    }
}

impl Canonical for WorkloadSpec {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        // `name` is display-only — the simulator never reads it — so two
        // differently-labelled but identical workloads share a cache line.
        h.write_usize(self.layers.len());
        for layer in &self.layers {
            layer.canonicalize(h);
        }
        h.write_u64(self.param_dtype_bytes);
        h.write_bool(self.activation_checkpointing);
        h.write_usize(self.micro_batch);
    }
}

impl Canonical for TrainingJob {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        self.workload.canonicalize(h);
        self.cluster.canonicalize(h);
        self.strategy.canonicalize(h);
        h.write_usize(self.accum_steps);
    }
}

impl Canonical for crate::dp::JobView<'_> {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        self.workload.canonicalize(h);
        self.cluster.canonicalize(h);
        self.strategy.canonicalize(h);
        h.write_usize(self.accum_steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mics_model::TransformerConfig;

    fn job(p: usize) -> TrainingJob {
        TrainingJob {
            workload: TransformerConfig::bert_10b().workload(8),
            cluster: ClusterSpec::new(InstanceType::p3dn_24xlarge(), 2),
            strategy: Strategy::Mics(MicsConfig::paper_defaults(p)),
            accum_steps: 4,
        }
    }

    #[test]
    fn semantically_equal_configs_hash_equal() {
        // Built through different code paths, same meaning.
        let a = MicsConfig::paper_defaults(8);
        let b = MicsConfig { partition_size: 8, ..MicsConfig::paper_defaults(16) };
        assert_eq!(a.canonical_hash(), b.canonical_hash());
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(job(8).canonical_key(), job(8).canonical_key());
    }

    #[test]
    fn distinct_configs_hash_distinct() {
        assert_ne!(
            MicsConfig::paper_defaults(8).canonical_hash(),
            MicsConfig::paper_defaults(16).canonical_hash()
        );
        let mut flat = MicsConfig::paper_defaults(8);
        flat.hierarchical_allgather = false;
        assert_ne!(flat.canonical_key(), MicsConfig::paper_defaults(8).canonical_key());
        assert_ne!(job(8).canonical_key(), job(16).canonical_key());
    }

    #[test]
    fn strategy_variants_do_not_collide_structurally() {
        let keys = [
            Strategy::Ddp.canonical_key(),
            Strategy::Zero(ZeroStage::One).canonical_key(),
            Strategy::Zero(ZeroStage::Three).canonical_key(),
            Strategy::ZeroCompressed(CompressionConfig::both(QuantScheme::int8())).canonical_key(),
            Strategy::Mics(MicsConfig::paper_defaults(8)).canonical_key(),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn derate_normalization_cannot_split_the_cache() {
        // `with_slow_node(_, 1.0)` materializes an explicit all-1.0 derate
        // vector; it must hash like the empty (all-healthy) default.
        let plain = ClusterSpec::new(InstanceType::p3dn_24xlarge(), 4);
        let spelled =
            ClusterSpec::new(InstanceType::p3dn_24xlarge(), 4).with_slow_node(NodeId(2), 1.0);
        assert_eq!(plain.canonical_key(), spelled.canonical_key());
        // A real straggler does change the key.
        let slow =
            ClusterSpec::new(InstanceType::p3dn_24xlarge(), 4).with_slow_node(NodeId(2), 0.5);
        assert_ne!(plain.canonical_key(), slow.canonical_key());
    }

    #[test]
    fn workload_name_is_display_only() {
        let mut a = TransformerConfig::bert_10b().workload(8);
        let b = a.clone();
        a.name = "renamed".into();
        assert_eq!(a.canonical_key(), b.canonical_key());
        // But a semantic field does matter.
        let mut c = b.clone();
        c.micro_batch = 16;
        assert_ne!(b.canonical_key(), c.canonical_key());
    }

    #[test]
    fn float_normalization() {
        let mut a = CanonicalHasher::new();
        a.write_f64(0.0);
        let mut b = CanonicalHasher::new();
        b.write_f64(-0.0);
        assert_eq!(a.finish(), b.finish(), "-0.0 must hash like 0.0");
        let mut c = CanonicalHasher::new();
        c.write_f64(f64::from_bits(0x7ff8_dead_beef_0001));
        let mut d = CanonicalHasher::new();
        d.write_f64(f64::NAN);
        assert_eq!(c.finish(), d.finish(), "all NaNs hash alike");
    }

    #[test]
    fn key_is_stable_across_runs() {
        // A golden value: the digest is part of the planner's on-the-wire
        // contract (cache keys may be logged/compared across processes), so
        // it must never drift silently.
        let key = MicsConfig::paper_defaults(8).canonical_hash();
        assert_eq!(key, MicsConfig::paper_defaults(8).canonical_hash());
        assert_ne!(key, 0);
    }

    #[test]
    fn keys_of_preset_jobs_are_pinned() {
        // Both lanes, as literals: a hasher change that moved a digest
        // would silently split the cache from every key logged before it.
        let preset = |model: &str, instance: &str, nodes: usize, strategy: &str| TrainingJob {
            workload: mics_model::preset(model, 8).unwrap(),
            cluster: ClusterSpec::new(InstanceType::preset(instance).unwrap(), nodes),
            strategy: Strategy::parse(strategy).unwrap(),
            accum_steps: 4,
        };
        let mut slow = preset("gpt2-20b", "dgx", 8, "mics:16");
        slow.cluster = slow.cluster.with_slow_node(NodeId(3), 0.5);
        let keys = [
            preset("bert-1.5b", "p3dn", 2, "mics:8").canonical_key(),
            preset("bert-10b", "p4d", 4, "zero3").canonical_key(),
            slow.canonical_key(),
        ];
        let pinned = [
            [0x188d_0d82_1d61_5eb4, 0x2776_7bbf_abec_05c7],
            [0xafdb_2b05_c452_0e4c, 0x7624_8967_6e5b_8c65],
            [0x4deb_5bf9_6cf2_de32, 0xd077_d741_3dae_a973],
        ];
        assert_eq!(keys.map(|k| k.0), pinned);
    }

    #[test]
    fn view_and_owned_job_share_a_key() {
        let j = job(8);
        assert_eq!(j.view().canonical_key(), j.canonical_key());
    }
}
