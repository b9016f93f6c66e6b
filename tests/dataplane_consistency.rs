//! Cross-crate consistency: the chunk-layout math (`mics-collectives`), the
//! real data plane (`mics-dataplane`), and the sharding arithmetic
//! (`mics-tensor`) must agree with each other — on **every transport**.
//!
//! Each scenario runs on both the shared-memory (thread) transport and the
//! socket transport (one framed hub connection per rank). The collectives'
//! folds are rank-side and the wire preserves `f32` bit patterns, so the two
//! transports must be observationally identical; these tests are the
//! enforcement of that claim — on the exact wire and under every codec,
//! whose encoded words are just another payload to the transport.

use mics::collectives::layout::flat_order;
use mics::collectives::HierarchicalLayout;
use mics::compress::QuantScheme;
use mics::dataplane::hierarchical::split_hierarchical;
use mics::dataplane::{
    naive_two_stage_all_gather, run_ranks_on, try_hierarchical_all_gather, try_run_ranks_on,
    with_deadline, CommError, Communicator, TransportKind,
};
use mics::tensor::ShardSpec;
use proptest::prelude::*;
use std::time::{Duration, Instant};

const BOTH: [TransportKind; 2] = [TransportKind::Local, TransportKind::Socket];

const CODECS: [Option<QuantScheme>; 4] = [
    None,
    Some(QuantScheme::F16),
    Some(QuantScheme::Int8 { block: 128 }),
    Some(QuantScheme::Int4 { block: 32 }),
];

/// `run_ranks_on(kind, ..)`, and under a scheme the other transport must
/// compute the same bits.
fn run_on<R, F>(kind: TransportKind, codec: Option<QuantScheme>, world: usize, f: F) -> Vec<R>
where
    F: Fn(Communicator) -> R + Sync,
    R: Send + PartialEq + std::fmt::Debug,
{
    let out = run_ranks_on(kind, world, &f);
    if codec.is_some() {
        let other = BOTH[usize::from(kind == TransportKind::Local)];
        assert_eq!(out, run_ranks_on(other, world, &f), "{kind} ≢ {other} under {codec:?}");
    }
    out
}

/// The symbolic layout simulation and the real data plane must produce the
/// same chunk order for every geometry, on either transport.
#[test]
fn symbolic_simulation_matches_real_dataplane() {
    for (nodes, k) in [(2usize, 2usize), (2, 4), (3, 2), (4, 4), (2, 8)] {
        let p = nodes * k;
        let layout = HierarchicalLayout::new(p, k).unwrap();
        // Symbolic.
        for rank in 0..p {
            assert_eq!(layout.simulate(rank), flat_order(p), "symbolic p={p} k={k}");
        }
        // Real buffers: rank r contributes chunk [r*2, r*2+1] (+ 0.3 under
        // a lossy codec, so rounding is exercised). Under every codec the
        // 3-stage gather equals the flat one bit-for-bit.
        for (kind, codec) in BOTH.into_iter().flat_map(|kind| CODECS.map(|c| (kind, c))) {
            let lossy = if codec.is_some() { 0.3 } else { 0.0 };
            let shard = move |rank: usize| [rank as f32 * 2.0 + lossy, rank as f32 * 2.0 + 1.0];
            let out = run_on(kind, codec, p, |mut comm| {
                let rank = comm.rank();
                let (channel, node) = split_hierarchical(&mut comm, &layout);
                try_hierarchical_all_gather(&channel, &node, &layout, &shard(rank), codec)
                    .expect("healthy world")
            });
            let flat = run_ranks_on(kind, p, |comm| {
                comm.try_all_gather(&shard(comm.rank()), codec).expect("healthy world")
            });
            assert_eq!(out, flat, "hierarchical ≢ flat p={p} k={k} {kind} {codec:?}");
            if codec.is_none() {
                let expect: Vec<f32> = (0..2 * p).map(|x| x as f32).collect();
                for (r, o) in out.iter().enumerate() {
                    assert_eq!(o, &expect, "dataplane p={p} k={k} rank={r} transport={kind}");
                }
            }
        }
    }
}

/// The naive (no re-arrangement) variant reproduces exactly the wrong order
/// the symbolic layout predicts — a bug and its model agreeing.
#[test]
fn naive_bug_matches_symbolic_prediction() {
    for (nodes, k) in [(2usize, 2usize), (2, 4), (4, 2)] {
        let p = nodes * k;
        let layout = HierarchicalLayout::new(p, k).unwrap();
        for kind in BOTH {
            let out = run_ranks_on(kind, p, |mut comm| {
                let rank = comm.rank();
                let (channel, node) = split_hierarchical(&mut comm, &layout);
                naive_two_stage_all_gather(&channel, &node, &layout, &[rank as f32])
            });
            for (rank, got) in out.iter().enumerate() {
                let predicted: Vec<f32> =
                    layout.naive_concat_order(rank).iter().map(|&c| c as f32).collect();
                assert_eq!(got, &predicted, "p={p} k={k} rank={rank} transport={kind}");
            }
        }
    }
}

/// ShardSpec's extract/assemble agrees with what a real all-gather of
/// per-rank shards produces.
#[test]
fn shard_spec_matches_all_gather_layout() {
    let numel = 37;
    let world = 5;
    let spec = ShardSpec::new(numel, world);
    let data: Vec<f32> = (0..numel).map(|i| (i as f32).cos()).collect();
    for kind in BOTH {
        let data_ref = data.clone();
        let gathered = run_ranks_on(kind, world, move |comm| {
            let shard = spec.extract_padded(&data_ref, comm.rank());
            comm.all_gather(&shard)
        });
        for g in gathered {
            assert_eq!(&g[..numel], &data[..], "padded all-gather must reassemble ({kind})");
            assert!(g[numel..].iter().all(|&x| x == 0.0), "tail must be padding ({kind})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// reduce_scatter ∘ all_gather == all_reduce on real data, any world,
    /// either transport — and under any codec, gathering the reduced shards
    /// exactly: both sides dequantize the same encoded contributions and
    /// fold them in the same rank order.
    #[test]
    fn reduce_scatter_all_gather_equals_all_reduce(
        world in 2usize..9,
        len in 1usize..6,
        kind_idx in 0usize..2,
        codec_idx in 0usize..4,
    ) {
        let (kind, codec) = (BOTH[kind_idx], CODECS[codec_idx]);
        let n = world * len; // per-rank contribution divisible by world
        let via_pair = run_on(kind, codec, world, move |comm| {
            let v: Vec<f32> = (0..n).map(|i| ((comm.rank() * 83 + i) as f32).sin()).collect();
            let mine = comm.try_reduce_scatter(&v, codec).expect("healthy world");
            comm.all_gather(&mine)
        });
        let via_ar = run_on(kind, codec, world, move |comm| {
            let v: Vec<f32> = (0..n).map(|i| ((comm.rank() * 83 + i) as f32).sin()).collect();
            comm.try_all_reduce(&v, codec).expect("healthy world")
        });
        prop_assert_eq!(via_pair, via_ar);
    }

    /// `split` under adversarial shapes: arbitrary color assignments
    /// (all-same, all-distinct, or anything between), worlds down to 1, and
    /// a second split nested inside the first. Membership and rank order
    /// must match the host-side computation every time, on both transports.
    #[test]
    fn repeated_splits_agree_with_host_side_membership(
        world in 1usize..8,
        colors in prop::collection::vec(0u8..4, 8usize),
        colors2 in prop::collection::vec(0u8..3, 8usize),
        kind_idx in 0usize..2,
    ) {
        let kind = BOTH[kind_idx];
        let c1 = colors[..world].to_vec();
        let c2 = colors2[..world].to_vec();
        let (k1, k2) = (c1.clone(), c2.clone());
        let out = run_ranks_on(kind, world, move |mut comm| {
            let rank = comm.rank();
            let mut g1 = comm.split(k1[rank] as i64, rank as i64);
            let first = g1.all_gather(&[rank as f32]);
            let g2 = g1.split(k2[rank] as i64, g1.rank() as i64);
            let second = g2.all_gather(&[rank as f32]);
            (first, second)
        });
        for rank in 0..world {
            let g1: Vec<usize> = (0..world).filter(|&r| c1[r] == c1[rank]).collect();
            let g2: Vec<usize> = g1.iter().copied().filter(|&r| c2[r] == c2[rank]).collect();
            let (first, second) = &out[rank];
            let want = |g: &[usize]| g.iter().map(|&r| r as f32).collect::<Vec<f32>>();
            prop_assert_eq!(first, &want(&g1), "first split, rank {}", rank);
            prop_assert_eq!(second, &want(&g2), "second split, rank {}", rank);
        }
    }

    /// Coalesced all-gather under adversarial batch shapes — empty batches,
    /// zero-length parts, uneven part sizes, world = 1 — always equals the
    /// per-buffer calls.
    #[test]
    fn coalesced_all_gather_adversarial_shapes(
        world in 1usize..7,
        lens in prop::collection::vec(0usize..5, 0usize..5),
        kind_idx in 0usize..2,
        codec_idx in 0usize..4,
    ) {
        let (kind, codec) = (BOTH[kind_idx], CODECS[codec_idx]);
        let fill = |rank: usize, p: usize, len: usize| -> Vec<f32> {
            (0..len).map(|i| (rank * 101 + p * 13 + i) as f32).collect()
        };
        let l1 = lens.clone();
        let coalesced = run_on(kind, codec, world, move |comm| {
            let bufs: Vec<Vec<f32>> =
                l1.iter().enumerate().map(|(p, &len)| fill(comm.rank(), p, len)).collect();
            let refs: Vec<&[f32]> = bufs.iter().map(|b| b.as_slice()).collect();
            comm.try_all_gather_coalesced(&refs, codec).expect("healthy world")
        });
        let l2 = lens.clone();
        let sequential = run_ranks_on(kind, world, move |comm| {
            l2.iter()
                .enumerate()
                .map(|(p, &len)| {
                    comm.try_all_gather(&fill(comm.rank(), p, len), codec).expect("healthy world")
                })
                .collect::<Vec<_>>()
        });
        prop_assert_eq!(coalesced, sequential);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Abort path, both transports: an arbitrary rank dying mid-collective
    /// turns every survivor's collective into an error — never a hang, never
    /// a wrong result.
    #[test]
    fn prop_killed_rank_aborts_survivors(
        world in 2usize..6,
        killer_seed in 0usize..97,
        kind_idx in 0usize..2,
        codec_idx in 0usize..4,
    ) {
        let (kind, codec) = (BOTH[kind_idx], CODECS[codec_idx]);
        let killer = killer_seed % world;
        with_deadline(Duration::from_secs(30), move || {
            let results = try_run_ranks_on(kind, world, move |c| {
                c.set_timeout(Duration::from_secs(5));
                if c.rank() == killer {
                    panic!("injected fault");
                }
                c.try_all_reduce(&[c.rank() as f32; 4], codec)
            });
            for (rank, r) in results.iter().enumerate() {
                if rank == killer {
                    assert!(r.is_err(), "killer must be reported as panicked");
                    continue;
                }
                match r.as_ref().expect("survivors must not panic") {
                    Err(CommError::RankFailed { .. }) | Err(CommError::PeerDisconnected { .. }) => {}
                    other => panic!(
                        "survivor {rank} must observe the fault on {kind} {codec:?}, got {other:?}"
                    ),
                }
            }
        });
    }

    /// Deadline path, both transports: a rank that silently never joins is
    /// detected by the rendezvous timeout within a bounded wall-clock time,
    /// on the world group and on a split sub-group alike.
    #[test]
    fn prop_absent_rank_is_detected_within_deadline(
        world in 2usize..6,
        absent_seed in 0usize..97,
        split_seed in 0usize..2,
        kind_idx in 0usize..2,
    ) {
        let kind = BOTH[kind_idx];
        let split_first = split_seed == 1;
        let absent = absent_seed % world;
        with_deadline(Duration::from_secs(30), move || {
            let started = Instant::now();
            let results = try_run_ranks_on(kind, world, move |mut c| {
                c.set_timeout(Duration::from_millis(250));
                // The split is itself collective, so the absentee takes part
                // in it — the same-color sub-group still contains the rank
                // that is about to walk away, and its gather must time out.
                let group = split_first.then(|| c.split(0, c.rank() as i64));
                if c.rank() == absent {
                    return None; // walks away without panicking
                }
                Some(match &group {
                    Some(g) => g.try_all_gather(&[1.0], None),
                    None => c.try_all_gather(&[1.0], None),
                })
            });
            for (rank, r) in results.into_iter().enumerate() {
                let r = r.expect("no panics in this scenario");
                if rank == absent {
                    assert!(r.is_none());
                    continue;
                }
                match r.expect("present ranks return Some") {
                    Err(CommError::Timeout { .. }) => {}
                    other => panic!("rank {rank} must time out on {kind}, got {other:?}"),
                }
            }
            let elapsed = started.elapsed();
            assert!(
                elapsed < Duration::from_secs(20),
                "detection must be bounded, took {elapsed:?}"
            );
        });
    }
}
