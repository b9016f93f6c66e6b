//! The 3-stage hierarchical all-gather of §3.3 / Figure 4, on real buffers —
//! including the memory-discontiguity bug the re-arrangement stage fixes.
//!
//! ```text
//! cargo run --release --example hierarchical_allgather
//! ```

use mics::collectives::HierarchicalLayout;
use mics::dataplane::hierarchical::split_hierarchical;
use mics::dataplane::{naive_two_stage_all_gather, run_ranks, try_hierarchical_all_gather};

fn main() {
    // The paper's running example: p = 4 devices on 2 nodes (k = 2).
    let layout = HierarchicalLayout::new(4, 2).unwrap();
    println!(
        "geometry: p = {} participants, k = {} per node, {} node(s)\n",
        layout.participants(),
        layout.per_node(),
        layout.nodes()
    );

    // Each rank contributes chunk C<rank> (one value here, for readability).
    let correct = run_ranks(4, |mut comm| {
        let rank = comm.rank();
        let (channel, node) = split_hierarchical(&mut comm, &layout);
        try_hierarchical_all_gather(&channel, &node, &layout, &[rank as f32], None)
            .expect("healthy world")
    });
    let naive = run_ranks(4, |mut comm| {
        let rank = comm.rank();
        let (channel, node) = split_hierarchical(&mut comm, &layout);
        naive_two_stage_all_gather(&channel, &node, &layout, &[rank as f32])
    });

    let fmt =
        |v: &[f32]| v.iter().map(|x| format!("C{}", *x as usize)).collect::<Vec<_>>().join(", ");
    println!("stage-1 holdings of rank 0 (node 0, local 0): {:?}", layout.stage1_holdings(0));
    println!("naive two-stage result (no re-arrangement):  [{}]  ← WRONG", fmt(&naive[0]));
    println!("3-stage hierarchical result:                 [{}]  ← correct", fmt(&correct[0]));
    assert_eq!(correct[0], vec![0.0, 1.0, 2.0, 3.0]);
    assert_eq!(naive[0], vec![0.0, 2.0, 1.0, 3.0]);
    println!("\nThe inter-node all-gather interleaves chunks by channel; stage 2 moves");
    println!("each chunk to its flat position before the batched intra-node gathers.");

    // And at a realistic geometry: 4 nodes × 8 GPUs.
    let layout = HierarchicalLayout::new(32, 8).unwrap();
    let out = run_ranks(32, |mut comm| {
        let rank = comm.rank();
        let (channel, node) = split_hierarchical(&mut comm, &layout);
        try_hierarchical_all_gather(&channel, &node, &layout, &[rank as f32 * 10.0], None)
            .expect("healthy world")
    });
    assert!(out.iter().all(|o| o == &out[0]));
    assert!(out[0].windows(2).all(|w| w[0] < w[1]));
    println!("\n32-rank (4 nodes × 8 GPUs) hierarchical all-gather verified on real data ✓");
}
