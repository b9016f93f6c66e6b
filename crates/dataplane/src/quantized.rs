//! The wire codec of the collectives — the execution half of the
//! compressed-communication subsystem (`mics-compress` provides the
//! kernels, `mics_collectives::WireCollective::cost` the α–β prices).
//!
//! A collective given `Some(scheme)` moves *encoded word streams* (see
//! `mics_compress::encode_words`: a count word, the block metadata, then the
//! codes packed four bytes to a word) through the same exchange as its fp32
//! form, so the failure semantics are the same by construction: a dead or
//! absent rank aborts it with the [`CommError`](crate::CommError) the exact
//! wire would return. Each contribution is encoded once, in one pass per
//! block, straight into the words that travel; on the local transport those
//! words become the deposit without a copy. Receivers decode only the
//! elements they land. Two styles, mirroring ZeRO++:
//!
//! * **qwZ (weight gather):** quantize once, transport codes, dequantize at
//!   the receiver. The 3-stage [`crate::try_hierarchical_all_gather`] moves
//!   the encoded chunks through all its stages and decodes at the end, so
//!   it is *bit-identical* to the flat quantized gather (codes are copied,
//!   never re-derived).
//! * **qgZ (gradient reduce):** gradients must be summed, and summing codes
//!   is meaningless — each hop dequantizes, reduces in fp32, and
//!   requantizes for the next hop. The 2-hop schedule (§3.4) makes that
//!   two quantized hops: the flat partition-group reduce-scatter, then the
//!   replication-group all-reduce of its shard. Within a hop every
//!   contribution is quantized once and summed in fp32, never requantized
//!   between partial sums. A quantized all-reduce decodes each element
//!   once, not `w` times: rank `r` folds only chunk `r` (`⌈len / w⌉`
//!   elements) of every contribution, in rank order from 0.0, and the chunk
//!   sums are then gathered on the exact wire — the same sums in the same
//!   order as a whole-buffer fold on every rank, so the same bits, for one
//!   more rendezvous.

use crate::{aborted, Communicator};
use mics_compress::{encode_words, land_words, Land, QuantScheme};
use std::ops::Range;

/// The words `data` travels as under `scheme`: exactly
/// `scheme.encoded_words(data.len())` of them.
pub(crate) fn encode(data: &[f32], scheme: QuantScheme) -> Vec<f32> {
    let mut words = Vec::new();
    encode_words(data, scheme, &mut words);
    words
}

/// The landing rule: elements `range` of the `len` values a received `wire`
/// stands for go into `out`, overwriting or adding. The exact wire is its
/// own values; under a scheme only the elements of `range` are decoded,
/// straight from the words (see [`land_words`]).
pub(crate) fn land(
    wire: &[f32],
    len: usize,
    scheme: Option<QuantScheme>,
    range: Range<usize>,
    out: &mut [f32],
    how: Land,
) {
    match (scheme, how) {
        (Some(s), _) => land_words(wire, len, s, range, out, how),
        (None, Land::Overwrite) => out.copy_from_slice(&wire[range]),
        (None, Land::Add) => out.iter_mut().zip(&wire[range]).for_each(|(o, x)| *o += *x),
    }
}

/// [`Communicator::try_all_gather`] under `scheme`.
///
/// # Panics
/// Panics if the group fails while waiting.
pub fn quantized_all_gather(
    comm: &Communicator,
    contribution: &[f32],
    scheme: QuantScheme,
) -> Vec<f32> {
    comm.try_all_gather(contribution, Some(scheme)).unwrap_or_else(aborted)
}

/// [`Communicator::try_all_reduce`] under `scheme`.
///
/// # Panics
/// Panics if the group fails while waiting.
pub fn quantized_all_reduce(
    comm: &Communicator,
    contribution: &[f32],
    scheme: QuantScheme,
) -> Vec<f32> {
    comm.try_all_reduce(contribution, Some(scheme)).unwrap_or_else(aborted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchical::split_hierarchical;
    use crate::{
        run_ranks, run_ranks_on, try_hierarchical_all_gather, try_run_ranks, with_deadline,
        CommError, TransportKind,
    };
    use mics_collectives::HierarchicalLayout;
    use mics_compress::{dequantize, round_trip, Quantized};
    use proptest::prelude::*;
    use std::time::Duration;

    const SCHEMES: [QuantScheme; 3] =
        [QuantScheme::F16, QuantScheme::Int8 { block: 128 }, QuantScheme::Int4 { block: 32 }];

    fn payload(rank: usize, len: usize) -> Vec<f32> {
        (0..len).map(|i| ((rank * 977 + i * 31) as f32 * 0.0713).sin() * 2.0).collect()
    }

    #[test]
    fn quantized_all_gather_equals_per_rank_round_trips() {
        // The gather is exact on *quantized* data: the result must equal the
        // concatenation of each rank's local round-trip.
        for scheme in SCHEMES {
            let world = 4;
            let len = 200;
            let out = run_ranks(world, move |c| {
                quantized_all_gather(&c, &payload(c.rank(), len), scheme)
            });
            let expect: Vec<f32> =
                (0..world).flat_map(|r| round_trip(&payload(r, len), scheme)).collect();
            for r in &out {
                assert_eq!(r, &expect, "{scheme:?}");
            }
        }
    }

    #[test]
    fn quantized_all_gather_world_one_is_local_round_trip() {
        let out = run_ranks(1, |c| quantized_all_gather(&c, &payload(0, 50), QuantScheme::int8()));
        assert_eq!(out[0], round_trip(&payload(0, 50), QuantScheme::int8()));
    }

    #[test]
    fn quantized_all_gather_empty_buffers() {
        let out = run_ranks(3, |c| quantized_all_gather(&c, &[], QuantScheme::int4()));
        for r in &out {
            assert!(r.is_empty());
        }
    }

    #[test]
    fn reduce_scatter_quantized_close_to_fp32() {
        let world = 4;
        let len = 64;
        let q = run_ranks(world, move |c| {
            c.try_reduce_scatter(&payload(c.rank(), len), Some(QuantScheme::int8()))
                .expect("healthy world")
        });
        let f = run_ranks(world, move |c| c.reduce_scatter(&payload(c.rank(), len)));
        // One quantized hop: error ≤ Σ_r bound_r ≈ world · scale/2.
        let bound: f32 = (0..world)
            .map(|r| mics_compress::quantize(&payload(r, len), QuantScheme::int8()).error_bound())
            .sum();
        for (qs, fs) in q.iter().zip(f.iter()) {
            for (a, b) in qs.iter().zip(fs.iter()) {
                assert!((a - b).abs() <= bound, "|{a} - {b}| > {bound}");
            }
        }
    }

    #[test]
    fn quantized_all_reduce_identical_on_every_rank() {
        let world = 5;
        let out = run_ranks(world, move |c| {
            quantized_all_reduce(&c, &payload(c.rank(), 90), QuantScheme::int8())
        });
        for r in &out[1..] {
            assert_eq!(r, &out[0]);
        }
        // And it equals the sum of the round-tripped contributions exactly
        // (rank-order fold of dequantized values).
        let mut expect = vec![0.0f32; 90];
        for r in 0..world {
            for (o, x) in expect.iter_mut().zip(round_trip(&payload(r, 90), QuantScheme::int8())) {
                *o += x;
            }
        }
        assert_eq!(out[0], expect);
    }

    #[test]
    fn hierarchical_quantized_gather_bit_equals_flat_quantized_gather() {
        // The tentpole data-layout claim, compressed edition: moving encoded
        // chunks through the 3 stages must reproduce the flat quantized
        // gather bit-for-bit.
        for scheme in SCHEMES {
            let (nodes, k, chunk) = (3usize, 2usize, 37usize);
            let p = nodes * k;
            let layout = HierarchicalLayout::new(p, k).unwrap();
            let hier = run_ranks(p, move |mut comm| {
                let rank = comm.rank();
                let (channel, node) = split_hierarchical(&mut comm, &layout);
                try_hierarchical_all_gather(
                    &channel,
                    &node,
                    &layout,
                    &payload(rank, chunk),
                    Some(scheme),
                )
                .expect("healthy world")
            });
            let flat =
                run_ranks(p, move |c| quantized_all_gather(&c, &payload(c.rank(), chunk), scheme));
            assert_eq!(hier, flat, "{scheme:?}");
        }
    }

    #[test]
    fn f16_gather_is_bit_exact_for_f16_data() {
        // Parameters already cast to f16 (minidl's quantize=true) travel a
        // f16 wire losslessly.
        let world = 4;
        let len = 100;
        let data = move |r: usize| -> Vec<f32> { round_trip(&payload(r, len), QuantScheme::F16) };
        let q =
            run_ranks(world, move |c| quantized_all_gather(&c, &data(c.rank()), QuantScheme::F16));
        let f = run_ranks(world, move |c| c.all_gather(&data(c.rank())));
        assert_eq!(q, f);
    }

    #[test]
    fn killed_rank_aborts_quantized_collectives() {
        // Same rendezvous/abort semantics as the fp32 collectives (PR 1).
        with_deadline(Duration::from_secs(20), || {
            let results = try_run_ranks(4, |c| {
                c.set_timeout(Duration::from_secs(5));
                if c.rank() == 2 {
                    panic!("injected fault");
                }
                c.try_all_gather(&payload(c.rank(), 64), Some(QuantScheme::int8()))
            });
            for (rank, r) in results.iter().enumerate() {
                if rank == 2 {
                    assert!(r.is_err());
                } else {
                    assert_eq!(
                        r.as_ref().expect("survivors don't panic").as_ref().unwrap_err(),
                        &CommError::RankFailed { rank: 2 },
                        "survivor {rank}"
                    );
                }
            }
        });
    }

    #[test]
    fn killed_rank_aborts_hierarchical_quantized_collectives() {
        with_deadline(Duration::from_secs(20), || {
            let layout = HierarchicalLayout::new(4, 2).unwrap();
            let results = try_run_ranks(4, move |mut c| {
                c.set_timeout(Duration::from_secs(5));
                let (channel, node) = split_hierarchical(&mut c, &layout);
                if c.rank() == 3 {
                    panic!("dies after split");
                }
                try_hierarchical_all_gather(
                    &channel,
                    &node,
                    &layout,
                    &payload(c.rank(), 8),
                    Some(QuantScheme::int4()),
                )
            });
            for (rank, r) in results.iter().enumerate() {
                if rank == 3 {
                    assert!(r.is_err());
                } else {
                    let collective = r.as_ref().expect("survivors don't panic");
                    assert!(
                        matches!(collective, Err(CommError::RankFailed { rank: 3 })),
                        "survivor {rank}: {collective:?}"
                    );
                }
            }
        });
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The landing rule decodes exactly what a whole-buffer decode would
        /// have put in `range`, bit for bit — any offset (odd ones split an
        /// int4 byte), empty ranges, NaN-poisoned blocks — and adds with
        /// the same single f32 add a fold over the decoded copy did.
        #[test]
        fn prop_land_equals_the_range_of_a_whole_decode(
            seed in 0usize..1000,
            len in 0usize..300,
            from in 0usize..301,
            to in 0usize..301,
            which in 0usize..5,
            poison in 0usize..600,
        ) {
            let scheme = [QuantScheme::F16, QuantScheme::int8(), QuantScheme::int4(),
                QuantScheme::Int8 { block: 7 }, QuantScheme::Int4 { block: 7 }][which];
            let mut data = payload(seed, len);
            if poison < len {
                data[poison] = f32::NAN;
            }
            let (a, b) = (from.min(len), to.min(len));
            let range = a.min(b)..a.max(b);
            let words = encode(&data, scheme);
            let whole = dequantize(&Quantized::from_words(&words, len, scheme));
            let want = &whole[range.clone()];
            let acc = payload(seed + 1, range.len());
            let mut out = acc.clone();
            land(&words, len, Some(scheme), range.clone(), &mut out, Land::Overwrite);
            prop_assert_eq!(bits(&out), bits(want));
            let mut out = acc.clone();
            land(&words, len, Some(scheme), range, &mut out, Land::Add);
            let added: Vec<f32> = acc.iter().zip(want).map(|(x, y)| x + y).collect();
            prop_assert_eq!(bits(&out), bits(&added));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The decode-once all-reduce equals the rank-order fold, from 0.0,
        /// of every rank's round trip, bit for bit, on every rank — any
        /// world, lengths below the world (empty chunks) and uneven last
        /// chunks, every codec, both transports.
        #[test]
        fn prop_quantized_all_reduce_is_the_rank_order_fold_of_round_trips(
            world in 1usize..=6,
            len in 0usize..=300,
            which in 0usize..4,
            kind in 0usize..2,
        ) {
            let scheme = [QuantScheme::F16, QuantScheme::int8(), QuantScheme::int4(),
                QuantScheme::Int8 { block: 7 }][which];
            let kind = [TransportKind::Local, TransportKind::Socket][kind];
            let out = run_ranks_on(kind, world, move |c| {
                quantized_all_reduce(&c, &payload(c.rank(), len), scheme)
            });
            let mut expect = vec![0.0f32; len];
            for r in 0..world {
                for (o, x) in expect.iter_mut().zip(round_trip(&payload(r, len), scheme)) {
                    *o += x;
                }
            }
            for got in &out {
                prop_assert_eq!(bits(got), bits(&expect));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// "Quantized hierarchical all-gather == flat quantized all-gather
        /// after dequant" — bit-exactly, for every (p, k) geometry and
        /// scheme (the ISSUE's ε is 0 here because codes travel verbatim).
        #[test]
        fn prop_hierarchical_equals_flat_for_all_geometries(
            nodes in 2usize..4,
            k in 1usize..4,
            chunk in 0usize..40,
            which in 0usize..3,
        ) {
            let p = nodes * k;
            prop_assume!(p > k);
            let scheme = SCHEMES[which];
            let layout = HierarchicalLayout::new(p, k).unwrap();
            let hier = run_ranks(p, move |mut comm| {
                let rank = comm.rank();
                let (channel, node) = split_hierarchical(&mut comm, &layout);
                try_hierarchical_all_gather(&channel, &node, &layout, &payload(rank, chunk), Some(scheme))
                    .expect("healthy world")
            });
            let flat = run_ranks(p, move |c| {
                quantized_all_gather(&c, &payload(c.rank(), chunk), scheme)
            });
            prop_assert_eq!(hier, flat);
        }
    }
}
