//! Figure 12a: micro-benchmark — hierarchical vs vanilla all-gather elapsed
//! time on two p3dn nodes (16 GPUs), messages up to 256 MB (§5.2.2).
//!
//! Two complementary measurements:
//! * the *cost model* (what the simulator executors price), and
//! * the *real data plane* (thread-ranks moving real f32 buffers through
//!   the 3-stage algorithm), verifying the algorithms agree bit-for-bit.

use mics_bench::{f2, Table};
use mics_cluster::InstanceType;
use mics_collectives::bandwidth::NetParams;
use mics_collectives::cost::{all_gather_flat, all_gather_hierarchical};
use mics_collectives::HierarchicalLayout;
use mics_dataplane::hierarchical::split_hierarchical;
use mics_dataplane::{run_ranks, try_hierarchical_all_gather};

fn main() {
    let net = NetParams::from_instance(&InstanceType::p3dn_24xlarge());
    let (p, k) = (16usize, 8usize);

    let mut t = Table::new(
        "Figure 12a — hierarchical vs vanilla all-gather, 2 nodes (16 GPUs)",
        &["message", "vanilla (ms)", "hierarchical (ms)", "hier/vanilla"],
    );
    for mb in [2u64, 8, 32, 64, 128, 256] {
        let m = mb << 20;
        let flat = all_gather_flat(p, k, m, &net).serial_time(&net);
        let hier = all_gather_hierarchical(p, k, m, &net, true).unwrap().serial_time(&net);
        t.row(vec![
            format!("{mb} MB"),
            f2(flat.as_millis_f64()),
            f2(hier.as_millis_f64()),
            format!("{:.1}%", hier.as_secs_f64() / flat.as_secs_f64() * 100.0),
        ]);
    }
    t.finish("fig12a_hierarchical_microbench");
    println!("\n(paper: hierarchical ≈72.1% of vanilla at 128 MB)");

    // Data-plane equivalence check on real buffers.
    let layout = HierarchicalLayout::new(p, k).unwrap();
    let chunk = 4096;
    let hier = run_ranks(p, |mut comm| {
        let rank = comm.rank();
        let (channel, node) = split_hierarchical(&mut comm, &layout);
        let shard: Vec<f32> = (0..chunk).map(|i| ((rank * 131 + i) as f32).sin()).collect();
        try_hierarchical_all_gather(&channel, &node, &layout, &shard, None).expect("healthy world")
    });
    let flat = run_ranks(p, |comm| {
        let rank = comm.rank();
        let shard: Vec<f32> = (0..chunk).map(|i| ((rank * 131 + i) as f32).sin()).collect();
        comm.all_gather(&shard)
    });
    assert_eq!(hier, flat, "hierarchical all-gather must equal flat all-gather");
    println!(
        "data plane: 3-stage hierarchical all-gather over {p} thread-ranks is \
         bit-identical to flat all-gather ({} elements) ✓",
        p * chunk
    );
}
