//! The real 3-stage hierarchical all-gather of paper §3.3 / Figure 4,
//! executed on actual buffers.
//!
//! The caller provides two sub-communicators of the partition group,
//! obtained with [`Communicator::split`]:
//!
//! * `channel`: this rank's **inter-node channel** — the ranks with the same
//!   within-node index on each node of the group (`p/k` members, one per
//!   node, ordered by node).
//! * `node`: this rank's **intra-node group** — the `k` ranks of its node,
//!   ordered by within-node index.
//!
//! Stage 1 all-gathers shards over `channel` (in a real cluster these `k`
//! channels run in parallel over the NICs). Stage 2 re-arranges the gathered
//! chunks into their final positions, fixing the memory-discontiguity the
//! paper illustrates with the `[C0, C2, C1, C3]` example. Stage 3 launches
//! `p/k` intra-node all-gathers *as one coalesced batch* to fill in the
//! chunks owned by node peers.

use crate::quantized::{encode, land};
use crate::{CommError, Communicator};
use mics_collectives::HierarchicalLayout;
use mics_compress::{Land, QuantScheme};

/// Gather the partition group's `p` shards into the full buffer using the
/// 3-stage hierarchical algorithm.
///
/// * `shard` — this rank's chunk (all ranks must pass equal lengths).
/// * `layout` — the `(p, k)` geometry; `channel.world()` must equal
///   `layout.nodes()` and `node.world()` must equal `layout.per_node()`.
/// * `scheme` — with one, the shard is quantized **once**, the three stages
///   move and place its encoded words, and only the `p` placed chunks are
///   decoded, each straight into its span of the result: codes travel
///   unmodified, so the result is bit-identical to the flat gather under
///   the same scheme.
///
/// Returns the `p × shard.len()` gathered buffer in flat rank order — the
/// same result a flat `try_all_gather` over the whole partition group
/// produces.
pub fn try_hierarchical_all_gather(
    channel: &Communicator,
    node: &Communicator,
    layout: &HierarchicalLayout,
    shard: &[f32],
    scheme: Option<QuantScheme>,
) -> Result<Vec<f32>, CommError> {
    assert_eq!(channel.world(), layout.nodes(), "channel size must equal node count");
    assert_eq!(node.world(), layout.per_node(), "node group size must equal k");
    let words = scheme.map(|s| encode(shard, s));
    let wire = words.as_deref().unwrap_or(shard);
    let chunk = wire.len();
    let p = layout.participants();
    let local = node.rank();
    let group_rank = channel.rank() * layout.per_node() + local;

    // Stage 1: inter-node all-gather along the channel. Afterwards this
    // rank holds chunks [local, k + local, 2k + local, …] in node order.
    let stage1 = channel.try_all_gather(wire, None)?;
    debug_assert_eq!(stage1.len(), layout.nodes() * chunk);

    // Stage 2: re-arrange into the final buffer. Chunk in stage-1 slot `j`
    // belongs at output chunk index `j·k + local`.
    let mut out = vec![0.0f32; p * chunk];
    for slot in 0..layout.nodes() {
        let dest = layout.stage2_destination(group_rank, slot);
        out[dest * chunk..(dest + 1) * chunk]
            .copy_from_slice(&stage1[slot * chunk..(slot + 1) * chunk]);
    }

    // Stage 3: p/k batched intra-node all-gathers. Call `j` exchanges the
    // node's chunks for output span [j·k, (j+1)·k).
    let parts: Vec<&[f32]> = (0..layout.nodes())
        .map(|j| {
            let idx = j * layout.per_node() + local;
            &out[idx * chunk..(idx + 1) * chunk]
        })
        .collect();
    let gathered = node.try_all_gather_coalesced(&parts, None)?;
    for (j, span) in gathered.iter().enumerate() {
        debug_assert_eq!(span.len(), layout.per_node() * chunk);
        let base = j * layout.per_node() * chunk;
        out[base..base + span.len()].copy_from_slice(span);
    }
    if scheme.is_none() {
        return Ok(out);
    }
    let len = shard.len();
    let mut values = vec![0.0f32; p * len];
    for r in 0..p {
        let (words, dest) = (&out[r * chunk..(r + 1) * chunk], &mut values[r * len..(r + 1) * len]);
        land(words, len, scheme, 0..len, dest, Land::Overwrite);
    }
    Ok(values)
}

/// The *incorrect* two-stage variant the paper warns about: gather along the
/// channel, then directly all-gather the stage-1 buffers within the node,
/// skipping the re-arrangement. Produces the wrong chunk order
/// (`[C0, C2, C1, C3]` for `p = 4, k = 2`). Kept as an executable
/// counter-example.
pub fn naive_two_stage_all_gather(
    channel: &Communicator,
    node: &Communicator,
    layout: &HierarchicalLayout,
    shard: &[f32],
) -> Vec<f32> {
    assert_eq!(channel.world(), layout.nodes());
    assert_eq!(node.world(), layout.per_node());
    let stage1 = channel.all_gather(shard);
    node.all_gather(&stage1)
}

/// Convenience: split a partition-group communicator of `p = nodes × k`
/// ranks into the `(channel, node)` pair [`try_hierarchical_all_gather`]
/// needs. Collective over `group`.
pub fn split_hierarchical(
    group: &mut Communicator,
    layout: &HierarchicalLayout,
) -> (Communicator, Communicator) {
    assert_eq!(group.world(), layout.participants(), "group size must equal p");
    let rank = group.rank();
    let channel = group.split(layout.local_of(rank) as i64, layout.node_of(rank) as i64);
    let node = group.split(layout.node_of(rank) as i64, layout.local_of(rank) as i64);
    (channel, node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_ranks;
    use proptest::prelude::*;

    /// Run hierarchical all-gather on `nodes × k` thread-ranks where rank r
    /// contributes `chunk` elements encoding (rank, element index).
    fn run_hier(nodes: usize, k: usize, chunk: usize, naive: bool) -> Vec<Vec<f32>> {
        let p = nodes * k;
        let layout = HierarchicalLayout::new(p, k).unwrap();
        run_ranks(p, move |mut comm| {
            let rank = comm.rank();
            let (channel, node) = split_hierarchical(&mut comm, &layout);
            let shard: Vec<f32> = (0..chunk).map(|i| (rank * 1000 + i) as f32).collect();
            if naive {
                naive_two_stage_all_gather(&channel, &node, &layout, &shard)
            } else {
                try_hierarchical_all_gather(&channel, &node, &layout, &shard, None)
                    .expect("healthy world")
            }
        })
    }

    fn flat_reference(p: usize, chunk: usize) -> Vec<f32> {
        (0..p).flat_map(|r| (0..chunk).map(move |i| (r * 1000 + i) as f32)).collect()
    }

    #[test]
    fn paper_example_two_nodes_two_gpus() {
        let out = run_hier(2, 2, 3, false);
        let expect = flat_reference(4, 3);
        for r in &out {
            assert_eq!(r, &expect);
        }
    }

    #[test]
    fn naive_variant_reproduces_papers_wrong_layout() {
        // p = 4, k = 2, chunk = 1: naive concatenation gives [C0, C2, C1, C3].
        let out = run_hier(2, 2, 1, true);
        assert_eq!(out[0], vec![0.0, 2000.0, 1000.0, 3000.0]);
    }

    #[test]
    fn four_nodes_eight_gpus() {
        let out = run_hier(4, 8, 2, false);
        let expect = flat_reference(32, 2);
        for r in &out {
            assert_eq!(r, &expect);
        }
    }

    #[test]
    fn matches_flat_all_gather_bitwise() {
        let nodes = 3;
        let k = 4;
        let p = nodes * k;
        let layout = HierarchicalLayout::new(p, k).unwrap();
        let chunk = 7;
        let hier = run_ranks(p, |mut comm| {
            let rank = comm.rank();
            let (channel, node) = split_hierarchical(&mut comm, &layout);
            let shard: Vec<f32> = (0..chunk).map(|i| ((rank * 31 + i) as f32).sin()).collect();
            try_hierarchical_all_gather(&channel, &node, &layout, &shard, None)
                .expect("healthy world")
        });
        let flat = run_ranks(p, |comm| {
            let rank = comm.rank();
            let shard: Vec<f32> = (0..chunk).map(|i| ((rank * 31 + i) as f32).sin()).collect();
            comm.all_gather(&shard)
        });
        assert_eq!(hier, flat);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Property: for every geometry the hierarchical gather equals the
        /// flat reference layout.
        #[test]
        fn hierarchical_correct_for_all_geometries(
            nodes in 2usize..5,
            k in 1usize..5,
            chunk in 1usize..9,
        ) {
            let p = nodes * k;
            prop_assume!(p > k);
            let out = run_hier(nodes, k, chunk, false);
            let expect = flat_reference(p, chunk);
            for r in &out {
                prop_assert_eq!(r, &expect);
            }
        }
    }
}
