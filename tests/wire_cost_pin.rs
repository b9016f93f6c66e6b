//! Pins what the simulator charges for every collective, compressed or
//! exact: over a grid of strategies, wire codecs and node counts, the hash
//! of each report's JSON and each program's cluster-wide NIC bytes.
//!
//! The schedule goldens (`tests/goldens/`) pin program dumps, which name a
//! codec but not its price; this grid pins the price. A cost-model change
//! that moves any of it must regenerate the table on purpose: run with
//! `--nocapture` and paste the printed rows.

use mics::cluster::{ClusterSpec, InstanceType};
use mics::collectives::NetParams;
use mics::core::json::ToJson;
use mics::core::{
    dp_program, simulate, CompressionConfig, MicsConfig, QuantScheme, Strategy, TrainingJob,
    ZeroStage,
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

/// Every cell of the grid, named. DDP has no codec, and a partition group
/// of 16 needs two nodes.
fn grid() -> Vec<(String, TrainingJob)> {
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
                let job = TrainingJob {
                    workload: TransformerConfig::bert_1_5b().workload(8),
                    cluster: ClusterSpec::new(InstanceType::p3dn_24xlarge(), nodes),
                    strategy,
                    accum_steps: 2,
                };
                cells.push((format!("{strategy_name}/{codec_name}/{nodes}n"), job));
            }
        }
    }
    cells
}

#[test]
fn compressed_and_exact_collective_charges_are_pinned() {
    let actual: Vec<(String, u64, u64)> = grid()
        .into_iter()
        .map(|(cell, job)| {
            let report = simulate(&job).unwrap_or_else(|e| panic!("{cell}: {e:?}"));
            let prog = dp_program(&job).unwrap_or_else(|e| panic!("{cell}: {e:?}"));
            let net = NetParams::from_instance(&job.cluster.instance);
            (cell, fnv1a(report.to_json().emit().as_bytes()), prog.total_nic_bytes(&net))
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
