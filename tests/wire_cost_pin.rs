//! Pins what the simulator charges for every collective, compressed or
//! exact: over a grid of strategies, wire codecs and node counts, the hash
//! of each report's JSON and each program's cluster-wide NIC bytes. The
//! grid's tail holds the shapes a planner is asked for beyond that: p4d and
//! DGX clusters of 8 and 16 nodes, a half-rate straggler node, a two-stage
//! pipeline, and one tuner search per node count (the hash then covers
//! every candidate the tuner explored).
//!
//! The schedule goldens (`tests/goldens/`) pin program dumps, which name a
//! codec but not its price; this grid pins the price. A cost-model change
//! that moves any of it must regenerate the table on purpose: run with
//! `--nocapture` and paste the printed rows.

use mics::cluster::{ClusterSpec, InstanceType, NodeId};
use mics::collectives::NetParams;
use mics::core::json::ToJson;
use mics::core::{
    dp_pipeline_program, dp_program, simulate, simulate_dp_pipeline, tune, CompressionConfig,
    MicsConfig, QuantScheme, Strategy, TrainingJob, ZeroStage,
};
use mics::model::TransformerConfig;

/// `(cell, FNV-1a of the report JSON, program total_nic_bytes)`.
const PINS: &[(&str, u64, u64)] = &[
    ("mics8/exact/1n", 0xcd5262d114e1a21d, 0),
    ("zero3/exact/1n", 0x89efe5b6ffbee952, 0),
    ("ddp/exact/1n", 0xec9ad9e3b95e741a, 0),
    ("mics8/f16-wg/1n", 0x7c14f66c1df9cb6e, 0),
    ("zero3/f16-wg/1n", 0x7ad9e81614fc73b9, 0),
    ("mics8/int8-w/1n", 0x91512ed94fcb06c9, 0),
    ("zero3/int8-w/1n", 0xf45da023652b1bae, 0),
    ("mics8/int8-g/1n", 0x7353b4bac8ea4fcb, 0),
    ("zero3/int8-g/1n", 0xd42737e97de4cd39, 0),
    ("mics8/int4-wg/1n", 0x254db76bee342093, 0),
    ("zero3/int4-wg/1n", 0x86ddea5610911744, 0),
    ("mics8/int8b64-wg/1n", 0x61ace3ceeb4c443e, 0),
    ("zero3/int8b64-wg/1n", 0x1520eeff5918cb02, 0),
    ("mics8/exact/2n", 0x4685653b8212321b, 6110374400),
    ("mics16-hier/exact/2n", 0xaaf8277ac0ea1b64, 23677700800),
    ("zero3/exact/2n", 0x8e5dc8813751b5ff, 45827808000),
    ("ddp/exact/2n", 0x2b79efa403b74aa8, 11456952000),
    ("mics8/f16-wg/2n", 0x3a088733e38f73b6, 6110374400),
    ("mics16-hier/f16-wg/2n", 0x3223d9491abc7ef9, 23677700800),
    ("zero3/f16-wg/2n", 0x2fd3b83d338bf400, 45827808000),
    ("mics8/int8-w/2n", 0x42b355d8d4eab0b3, 6110374400),
    ("mics16-hier/int8-w/2n", 0xc56decdd0174dd79, 17949225568),
    ("zero3/int8-w/2n", 0x3440d10e361f9c3d, 35086916744),
    ("mics8/int8-g/2n", 0xc148d36ceb147f49, 3246136576),
    ("mics16-hier/int8-g/2n", 0x86c7de92addfa176, 18307254576),
    ("zero3/int8-g/2n", 0xa29556ad7557c49c, 35086915560),
    ("mics8/int4-wg/2n", 0xd11ad4b0590efcf9, 1718542976),
    ("mics16-hier/int4-wg/2n", 0x549d0421815cd20d, 6659354144),
    ("zero3/int4-wg/2n", 0x942254d383ded993, 12889072304),
    ("mics8/int8b64-wg/2n", 0x77aa7d850357daba, 3437085696),
    ("mics16-hier/int8b64-wg/2n", 0x7563aff672c0aebd, 13318706696),
    ("zero3/int8b64-wg/2n", 0x315a7abd6cd43481, 25778141808),
    ("mics8/exact/4n", 0x40a492147c2da675, 18331123200),
    ("mics16-hier/exact/4n", 0x2f0d47b53c99e815, 53465776000),
    ("zero3/exact/4n", 0x597e3bd6d938c325, 94710803200),
    ("ddp/exact/4n", 0xd82494b36d8502be, 23677700800),
    ("mics8/f16-wg/4n", 0xad2043cbef696678, 18331123200),
    ("mics16-hier/f16-wg/4n", 0x3b9ab3268c6ef466, 53465776000),
    ("zero3/f16-wg/4n", 0x6ba1b2ce21ad8548, 94710803200),
    ("mics8/int8-w/4n", 0xebd18540197f349e, 18331123200),
    ("mics16-hier/int8-w/4n", 0x53f684f2b97ad1b3, 42008825536),
    ("zero3/int8-w/4n", 0x9a2057213edf23ab, 72512961472),
    ("mics8/int8-g/4n", 0xd594d2d6fdf25ed4, 9738409728),
    ("mics16-hier/int8-g/4n", 0x6888331d7050a9fb, 39860645728),
    ("zero3/int8-g/4n", 0xe3a593b2374bf311, 72512958816),
    ("mics8/int4-wg/4n", 0xfd68567015b5146c, 5155628928),
    ("mics16-hier/int4-wg/4n", 0x03e61edac914003f, 15037251264),
    ("zero3/int4-wg/4n", 0x4a9500532de79bea, 26637416288),
    ("mics8/int8b64-wg/4n", 0x5fdcd3d8f8f7010d, 10311257088),
    ("mics16-hier/int8b64-wg/4n", 0x0d5c6fd57c6040f2, 30074499344),
    ("zero3/int8b64-wg/4n", 0xf62a0f1fb1cd317f, 53274826208),
    ("mics8/p4d/8n", 0xecc6db49bde8631b, 42772620800),
    ("mics32-hier/p4d/8n", 0x36d81b567849ce36, 126790268800),
    ("mics8-int8/p4d/8n", 0x4390328704a47ec2, 22722956032),
    ("zero3/p4d/8n", 0x0afd5cfb6ad1905b, 192476793600),
    ("ddp/p4d/8n", 0xd287c3e28cc80f9f, 48119198400),
    ("mics8/p4d/16n", 0x2866b35e1d15c589, 91655616000),
    ("mics32-hier/p4d/16n", 0xe82fe20ef63165d3, 259690912000),
    ("mics8-int8/p4d/16n", 0xd302b90b1c5d6966, 48692048640),
    ("zero3/p4d/16n", 0x44eea48ec858f667, 388008774400),
    ("ddp/p4d/16n", 0xec97f53a8c759127, 97002193600),
    ("mics8/dgx/8n", 0x2ccc2ac82e4cecbc, 42772620800),
    ("mics32-hier/dgx/8n", 0xa55250341c01bb71, 126790268800),
    ("mics8-int8/dgx/8n", 0xcd56682150c01f84, 22722956032),
    ("zero3/dgx/8n", 0xb9cf1474f17f307a, 192476793600),
    ("ddp/dgx/8n", 0x293bb00aec8654f2, 48119198400),
    ("mics8/dgx/16n", 0xc8e3541d21f068a3, 91655616000),
    ("mics32-hier/dgx/16n", 0xbdb34ce344b1ceb1, 259690912000),
    ("mics8-int8/dgx/16n", 0x71cd218e2adb043b, 48692048640),
    ("zero3/dgx/16n", 0x3ecd27a30005b4fb, 388008774400),
    ("ddp/dgx/16n", 0xb280d4042f2d0c79, 97002193600),
    ("mics16-hier/slow-node2/4n", 0xf018733b92f7fb0b, 53465776000),
    ("mics8/pp2/2n", 0x2297c9d103d6b61a, 8257858048),
    ("tune/1n", 0x9c91c0e6880eb449, 0),
    ("tune/2n", 0xf9fbd90b87bb9668, 6110374400),
    ("tune/4n", 0xbfaf2df6bbc14549, 18331123200),
    ("tune/8n", 0xcc66aff171aae75b, 42772620800),
    ("tune/16n", 0x61faddfd6d3fe6d1, 91655616000),
];

/// FNV-1a, 64-bit: a stable hash with no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn codecs() -> [(&'static str, Option<CompressionConfig>); 6] {
    [
        ("exact", None),
        ("f16-wg", Some(CompressionConfig::both(QuantScheme::F16))),
        ("int8-w", Some(CompressionConfig::weights_only(QuantScheme::int8()))),
        ("int8-g", Some(CompressionConfig::grads_only(QuantScheme::int8()))),
        ("int4-wg", Some(CompressionConfig::both(QuantScheme::int4()))),
        ("int8b64-wg", Some(CompressionConfig::both(QuantScheme::Int8 { block: 64 }))),
    ]
}

/// What a cell asks the simulator.
enum Query {
    /// `simulate` the job.
    Simulate,
    /// Simulate the job on two pipeline stages.
    TwoStages,
    /// Tune the job's workload on its cluster.
    Tune,
}

/// Activation bytes per micro-batch of the two-stage cells.
const ACT_BYTES: u64 = 1 << 24;

fn bert(cluster: ClusterSpec, strategy: Strategy) -> TrainingJob {
    TrainingJob {
        workload: TransformerConfig::bert_1_5b().workload(8),
        cluster,
        strategy,
        accum_steps: 2,
    }
}

/// Every cell of the grid, named. DDP has no codec, and a partition group
/// of 16 needs two nodes.
fn grid() -> Vec<(String, Query, TrainingJob)> {
    let mut cells = Vec::new();
    for nodes in [1, 2, 4] {
        for (codec_name, codec) in codecs() {
            let mics = |p| MicsConfig { compression: codec, ..MicsConfig::paper_defaults(p) };
            let mut strategies = vec![("mics8", Strategy::Mics(mics(8)))];
            if nodes >= 2 {
                strategies.push(("mics16-hier", Strategy::Mics(mics(16))));
            }
            strategies.push((
                "zero3",
                codec.map_or(Strategy::Zero(ZeroStage::Three), Strategy::ZeroCompressed),
            ));
            if codec.is_none() {
                strategies.push(("ddp", Strategy::Ddp));
            }
            for (strategy_name, strategy) in strategies {
                let job = bert(ClusterSpec::new(InstanceType::p3dn_24xlarge(), nodes), strategy);
                cells.push((
                    format!("{strategy_name}/{codec_name}/{nodes}n"),
                    Query::Simulate,
                    job,
                ));
            }
        }
    }
    let int8 = CompressionConfig::both(QuantScheme::int8());
    for instance in ["p4d", "dgx"] {
        for nodes in [8, 16] {
            let cluster = ClusterSpec::new(InstanceType::preset(instance).unwrap(), nodes);
            for (name, strategy) in [
                ("mics8", Strategy::Mics(MicsConfig::paper_defaults(8))),
                ("mics32-hier", Strategy::Mics(MicsConfig::paper_defaults(32))),
                ("mics8-int8", Strategy::Mics(MicsConfig::compressed(8, int8))),
                ("zero3", Strategy::Zero(ZeroStage::Three)),
                ("ddp", Strategy::Ddp),
            ] {
                let job = bert(cluster.clone(), strategy);
                cells.push((format!("{name}/{instance}/{nodes}n"), Query::Simulate, job));
            }
        }
    }
    let p3dn = |nodes| ClusterSpec::new(InstanceType::p3dn_24xlarge(), nodes);
    let mics16 = Strategy::Mics(MicsConfig::paper_defaults(16));
    let straggler = p3dn(4).with_slow_node(NodeId(2), 0.5);
    cells.push(("mics16-hier/slow-node2/4n".into(), Query::Simulate, bert(straggler, mics16)));
    let mics8 = Strategy::Mics(MicsConfig::paper_defaults(8));
    cells.push(("mics8/pp2/2n".into(), Query::TwoStages, bert(p3dn(2), mics8.clone())));
    for nodes in [1, 2, 4, 8, 16] {
        cells.push((format!("tune/{nodes}n"), Query::Tune, bert(p3dn(nodes), mics8.clone())));
    }
    cells
}

/// A cell's row: the hash of what it reports and a cluster-wide NIC byte
/// count (a tune cell hashes every explored candidate and counts the
/// winner's program).
fn row(query: &Query, job: &TrainingJob) -> (u64, u64) {
    let net = NetParams::from_instance(&job.cluster.instance);
    match query {
        Query::Simulate => (
            fnv1a(simulate(job).unwrap().to_json().emit().as_bytes()),
            dp_program(job).unwrap().total_nic_bytes(&net),
        ),
        Query::TwoStages => (
            fnv1a(simulate_dp_pipeline(job, 2, ACT_BYTES).unwrap().to_json().emit().as_bytes()),
            dp_pipeline_program(job, 2, ACT_BYTES).unwrap().total_nic_bytes(&net),
        ),
        Query::Tune => {
            let tuned = tune(&job.workload, &job.cluster, job.accum_steps).unwrap();
            let mut explored = String::new();
            for c in &tuned.explored {
                explored.push_str(&Strategy::Mics(c.config.clone()).label());
                match &c.outcome {
                    Ok(report) => explored.push_str(&report.to_json().emit()),
                    Err(oom) => explored.push_str(&format!("{oom:?}")),
                }
            }
            let best = TrainingJob { strategy: Strategy::Mics(tuned.best), ..job.clone() };
            (fnv1a(explored.as_bytes()), dp_program(&best).unwrap().total_nic_bytes(&net))
        }
    }
}

#[test]
fn compressed_and_exact_collective_charges_are_pinned() {
    let actual: Vec<(String, u64, u64)> = grid()
        .into_iter()
        .map(|(cell, query, job)| {
            let (hash, nic) = row(&query, &job);
            (cell, hash, nic)
        })
        .collect();
    let pinned: Vec<(String, u64, u64)> =
        PINS.iter().map(|&(cell, hash, nic)| (cell.to_string(), hash, nic)).collect();
    if actual != pinned {
        for (cell, hash, nic) in &actual {
            println!("    (\"{cell}\", {hash:#018x}, {nic}),");
        }
    }
    assert_eq!(actual, pinned);
}
