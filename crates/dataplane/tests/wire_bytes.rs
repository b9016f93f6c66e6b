//! Bytes moved equal bytes charged. Over the socket transport, each rank's
//! `socket.rank{N}.tx_bytes` and `.rx_bytes` grow, across one collective,
//! by exactly the payload the α–β model charges that rank — `(w − 1)/w · M`
//! each way for an exact reduce-scatter of `M`, `(w − 1) · c` received for
//! a gather of `c`, … — plus the frame overhead the wire layout fixes. A
//! quantized piece is the packed stream of `mics-compress` (count word,
//! block metadata, codes four to a word): for int8 at most 7 bytes over
//! `QuantScheme::wire_bytes`. A quantized all-reduce is two exchanges: one
//! whole stream to every peer, then an exact gather of `⌈len / w⌉`-element
//! chunk sums. The only other bytes allowed are whole 5-byte heartbeat
//! frames.
//!
//! This is the only test in its binary: the counters are process-global
//! and keyed by rank, so no other world may run beside these.

use mics_compress::QuantScheme;
use mics_dataplane::transport::socket::HEARTBEAT_INTERVAL;
use mics_dataplane::{run_ranks_on, socket_counters, Communicator, TransportKind};
use std::time::{Duration, Instant};

/// A length prefix.
const PREFIX: u64 = 4;
/// An `Exchange` before its pieces: tag, group, seq, world, member, piece
/// count.
const EXCHANGE_HEAD: u64 = 1 + 4 * 8 + 4;
/// A piece before its parts: destination, part count.
const PIECE_HEAD: u64 = 4 + 4;
/// A `Reply` before its entries: tag, group, seq, entry count.
const REPLY_HEAD: u64 = 1 + 2 * 8 + 4;
/// An entry before its parts: part count.
const ENTRY_HEAD: u64 = 4;
/// A part before its words: length.
const PART_HEAD: u64 = 4;
/// A ping (hub → rank) or its pong (rank → hub).
const HEARTBEAT_FRAME: u64 = 5;

/// One rank's side of one collective.
#[derive(Debug, Clone)]
struct Charge {
    /// Payload words sent and received: what the model charges.
    words: (u64, u64),
    /// Part counts of the pieces sent and of the entries received: what
    /// the layout adds.
    sent_parts: Vec<u64>,
    received_parts: Vec<u64>,
}

impl Charge {
    fn tx(&self) -> u64 {
        let heads: u64 = self.sent_parts.iter().map(|n| PIECE_HEAD + n * PART_HEAD).sum();
        PREFIX + EXCHANGE_HEAD + heads + 4 * self.words.0
    }

    fn rx(&self) -> u64 {
        let heads: u64 = self.received_parts.iter().map(|n| ENTRY_HEAD + n * PART_HEAD).sum();
        PREFIX + REPLY_HEAD + heads + 4 * self.words.1
    }
}

/// One collective, and what each of its exchanges charges each rank.
struct Case {
    name: String,
    run: Box<dyn Fn(&Communicator) + Sync>,
    charge: Box<dyn Fn(u64) -> Vec<Charge> + Sync>,
}

fn cases(world: u64) -> Vec<Case> {
    // Lengths divisible by every world size tried, odd per shard.
    let (gathered, reduced) = (1_001usize, 12 * 1_001usize);
    let peers = world - 1;
    let mut cases = Vec::new();
    for scheme in [None, Some(QuantScheme::int8())] {
        let words = move |len: usize| scheme.map_or(len, |s| s.encoded_words(len)) as u64;
        let tag = if scheme.is_some() { "int8" } else { "exact" };
        let data = |len: usize| {
            move |c: &Communicator| -> Vec<f32> {
                (0..len).map(|i| ((c.rank() * 7919 + i) as f32 * 0.37).sin()).collect()
            }
        };
        // Every member sends one piece for all others and gets one entry
        // from each.
        let whole = move |sent: u64| Charge {
            words: (sent, peers * sent),
            sent_parts: vec![1],
            received_parts: vec![1; peers as usize],
        };
        let (g, r) = (data(gathered), data(reduced));
        cases.push(Case {
            name: format!("{tag} all-gather of {gathered}"),
            run: Box::new(move |c| drop(c.try_all_gather(&g(c), scheme).unwrap())),
            charge: Box::new(move |_| vec![whole(words(gathered))]),
        });
        cases.push(Case {
            name: format!("{tag} all-reduce of {reduced}"),
            run: Box::new(move |c| drop(c.try_all_reduce(&r(c), scheme).unwrap())),
            charge: Box::new(move |_| match scheme {
                None => vec![whole(words(reduced))],
                // Each rank decodes only its chunk, then the chunk sums are
                // gathered on the exact wire.
                Some(_) => {
                    vec![whole(words(reduced)), whole(reduced.div_ceil(world as usize) as u64)]
                }
            }),
        });
        let r = data(reduced);
        cases.push(Case {
            name: format!("{tag} reduce-scatter of {reduced}"),
            run: Box::new(move |c| drop(c.try_reduce_scatter(&r(c), scheme).unwrap())),
            charge: Box::new(move |_| match scheme {
                // Slice `j` to member `j`: (w − 1)/w of the buffer each way.
                None => {
                    let shard = reduced as u64 / world;
                    vec![Charge {
                        words: (peers * shard, peers * shard),
                        sent_parts: vec![1; peers as usize],
                        received_parts: vec![1; peers as usize],
                    }]
                }
                // Per-slice encoding is exact only on block-aligned slices:
                // one whole piece.
                Some(_) => vec![whole(words(reduced))],
            }),
        });
    }
    let b = 333usize;
    cases.push(Case {
        name: format!("broadcast of {b} from rank 0"),
        run: Box::new(move |c| {
            let data = vec![c.rank() as f32; b];
            assert_eq!(c.try_broadcast(0, &data).unwrap(), vec![0.0; b]);
        }),
        // The root sends one part and gets one empty entry from each peer;
        // a peer sends an empty piece and gets the root's part.
        charge: Box::new(move |rank| {
            vec![Charge {
                words: if rank == 0 { (b as u64, 0) } else { (0, b as u64) },
                sent_parts: vec![u64::from(rank == 0)],
                received_parts: (0..world)
                    .filter(|&m| m != rank)
                    .map(|m| u64::from(m == 0))
                    .collect(),
            }]
        }),
    });
    cases
}

/// The counter's growth over the window, less `charged`: whole heartbeat
/// frames, at most `beats` of them.
fn assert_only_heartbeats(what: &str, moved: u64, charged: u64, beats: u64) {
    assert!(moved >= charged, "{what}: moved {moved} bytes, charged {charged}");
    let extra = moved - charged;
    assert!(
        extra.is_multiple_of(HEARTBEAT_FRAME) && extra / HEARTBEAT_FRAME <= beats,
        "{what}: {extra} bytes beyond the {charged} charged; at most {beats} heartbeat frames allowed"
    );
}

#[test]
fn socket_ranks_move_exactly_the_bytes_the_model_charges() {
    // An int8 piece is its packed size, a count word and at most 3 bytes of
    // padding: never more than 7 bytes over what the cost model charges.
    let int8 = QuantScheme::int8();
    for len in (0..=1_100).chain([12 * 1_001]) {
        let payload = 4 * int8.encoded_words(len) as u64;
        assert!(payload <= int8.wire_bytes(len) + 7, "int8 piece of {len}: {payload} bytes");
    }
    for world in [2u64, 3, 4] {
        let cases = cases(world);
        let windows = run_ranks_on(TransportKind::Socket, world as usize, |c| {
            let counter = |what: &str| format!("socket.rank{}.{what}", c.rank());
            let (tx, rx) = (counter("tx_bytes"), counter("rx_bytes"));
            let read = || (socket_counters().get(&tx), socket_counters().get(&rx));
            cases
                .iter()
                .map(|case| {
                    c.barrier();
                    let (started, (tx0, rx0)) = (Instant::now(), read());
                    (case.run)(&c);
                    let (tx1, rx1) = read();
                    (tx1 - tx0, rx1 - rx0, started.elapsed())
                })
                .collect::<Vec<(u64, u64, Duration)>>()
        });
        for (rank, windows) in windows.iter().enumerate() {
            for (case, &(tx, rx, elapsed)) in cases.iter().zip(windows) {
                let charges = (case.charge)(rank as u64);
                let (charged_tx, charged_rx) =
                    charges.iter().fold((0, 0), |(t, r), c| (t + c.tx(), r + c.rx()));
                let what = format!("w = {world}, rank {rank}, {}", case.name);
                // The hub pings an idle rank every interval; the pong to a
                // ping received just before the window opened may still be
                // sent inside it.
                let pings = (elapsed.as_nanos() / HEARTBEAT_INTERVAL.as_nanos()) as u64 + 1;
                assert_only_heartbeats(&format!("{what}, tx"), tx, charged_tx, pings + 1);
                assert_only_heartbeats(&format!("{what}, rx"), rx, charged_rx, pings);
            }
        }
    }
}
