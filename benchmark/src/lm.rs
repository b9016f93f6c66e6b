//! The three `lm_*` workloads: one unit is one whole `train_lm_on` run.

use crate::round::{
    report_peak_rss, report_window, trace_probes, write_trace, Report, RoundArgs, WindowClock,
};
use crate::spans::SpanLog;
use crate::stats::median;
use mics_collectives::NetParams;
use mics_compress::{dequantize, quantize, Quantized};
use mics_dataplane::{
    quantized_all_gather, quantized_all_reduce, run_ranks_on, socket_counters, TransportKind,
};
use mics_minidl::lm::token_batch;
use mics_minidl::scaler::LossScale;
use mics_minidl::train::step_spec_with_flops;
use mics_minidl::{
    flops_total, set_kernel_threads, step_program, train_lm_on, Adam, CompressionConfig, ExecLane,
    LmSetup, QuantScheme, ScheduleHyper, SyncSchedule, TinyTransformer, TrainOutcome,
};
use mics_trace::Trace;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One `lm_*` workload: what a unit runs and what it is checked against.
pub struct LmWorkload {
    pub setup: LmSetup,
    pub transport: TransportKind,
    pub schedule: SyncSchedule,
    /// Transport and prefetch depth of the reference run. The repo's
    /// contracts say outcomes are bit-identical across transports and
    /// between the inline and the async executor, so the reference takes
    /// the other side of whichever contract the workload exercises.
    reference: (TransportKind, usize),
}

/// The workload called `name`, or `None` if it is not an `lm_*` one. Model
/// shapes are `TinyTransformer::new(vocab, seq_len, d_model, heads, ffn,
/// layers)`; README.md says why each was chosen.
pub fn workload(name: &str, seed: u64) -> Option<LmWorkload> {
    let lm = |model, world, p, micro_batch, iterations, comm_quant, prefetch_depth| LmSetup {
        model,
        world,
        partition_size: p,
        micro_batch,
        accum_steps: 2,
        iterations,
        lr: 0.01,
        seed,
        quantize: false,
        loss_scale: LossScale::None,
        clip_grad_norm: None,
        comm_quant,
        prefetch_depth,
    };
    let wide = || TinyTransformer::new(128, 8, 96, 4, 384, 2);
    Some(match name {
        "lm_compute_local" => LmWorkload {
            setup: lm(TinyTransformer::new(64, 32, 64, 4, 256, 2), 2, 2, 16, 8, None, 0),
            transport: TransportKind::Local,
            schedule: SyncSchedule::TwoHop,
            reference: (TransportKind::Local, 0),
        },
        "lm_comm_socket" => LmWorkload {
            setup: lm(wide(), 4, 2, 1, 24, None, 0),
            transport: TransportKind::Socket,
            schedule: SyncSchedule::TwoHop,
            reference: (TransportKind::Local, 0),
        },
        "lm_q8_zero3_local" => LmWorkload {
            setup: lm(wide(), 4, 4, 1, 8, Some(CompressionConfig::both(QuantScheme::int8())), 2),
            transport: TransportKind::Local,
            schedule: SyncSchedule::PerMicroStepAllReduce,
            reference: (TransportKind::Local, 0),
        },
        _ => return None,
    })
}

impl LmWorkload {
    fn tokens_per_unit(&self) -> f64 {
        let s = &self.setup;
        (s.world * s.micro_batch * s.accum_steps * s.iterations * s.model.seq_len) as f64
    }

    fn hyper(&self) -> ScheduleHyper {
        let s = &self.setup;
        ScheduleHyper {
            world: s.world,
            partition_size: s.partition_size,
            accum_steps: s.accum_steps,
            iterations: s.iterations,
            lr: s.lr,
            quantize: s.quantize,
            loss_scale: s.loss_scale,
            clip_grad_norm: s.clip_grad_norm,
            comm_quant: s.comm_quant,
            prefetch_depth: s.prefetch_depth,
        }
    }

    /// One unit at `prefetch_depth`; `None` if any rank failed.
    fn unit(&self, transport: TransportKind, prefetch_depth: usize) -> Option<TrainOutcome> {
        let setup = LmSetup { prefetch_depth, ..self.setup.clone() };
        catch_unwind(AssertUnwindSafe(|| train_lm_on(transport, &setup, self.schedule))).ok()
    }

    /// Bytes one iteration must move between nodes if every rank sat on its
    /// own node, by the schedule IR's α–β accounting.
    fn modelled_nic_bytes_per_unit(&self) -> f64 {
        let numel = self.setup.model.num_params();
        let mut spec = step_spec_with_flops(&self.hyper(), self.schedule, numel, 0.0, 0.0);
        spec.k = 1;
        let net = NetParams::from_instance(&mics_cluster::InstanceType::p3dn_24xlarge());
        (spec.program().total_nic_bytes(&net) * self.setup.iterations as u64) as f64
    }
}

fn passes(out: &Option<TrainOutcome>, reference: &TrainOutcome) -> bool {
    out.as_ref().is_some_and(|o| o == reference && o.losses.iter().all(|l| l.is_finite()))
}

/// Bytes every socket rank has put on the wire so far.
fn socket_tx_bytes() -> u64 {
    socket_counters()
        .snapshot()
        .iter()
        .filter(|(name, _)| name.starts_with("socket.rank") && name.ends_with(".tx_bytes"))
        .map(|(_, v)| v)
        .sum()
}

/// Per-unit samples a traced round takes from `lane_stats` and the public
/// counters; each metric is the median over the round's units.
#[derive(Default)]
struct UnitSamples {
    lane_wall_ms: Vec<f64>,
    lane_compute_ms: Vec<f64>,
    lane_gather_ms: Vec<f64>,
    lane_reduce_ms: Vec<f64>,
    lane_overlap_frac: Vec<f64>,
    exec_other_ms: Vec<f64>,
    run_startstop_ms: Vec<f64>,
    flops: Vec<f64>,
    wire_bytes: Vec<f64>,
    collectives: Vec<f64>,
    trace_events: Vec<f64>,
}

impl UnitSamples {
    fn record(&mut self, out: &TrainOutcome, unit_s: f64, flops: u64, wire: u64, events: usize) {
        let ls = &out.lane_stats;
        let ms = |ns: u64| ns as f64 / 1e6;
        let (wall, compute) = (ms(ls.wall_ns), ms(ls.busy_ns(ExecLane::Compute)));
        let (gather, reduce) = (ms(ls.busy_ns(ExecLane::Gather)), ms(ls.busy_ns(ExecLane::Reduce)));
        self.lane_wall_ms.push(wall);
        self.lane_compute_ms.push(compute);
        self.lane_gather_ms.push(gather);
        self.lane_reduce_ms.push(reduce);
        self.lane_overlap_frac.push(ls.overlap_fraction());
        self.exec_other_ms.push(wall - compute - gather - reduce + ms(ls.overlap_ns()));
        self.run_startstop_ms.push(unit_s * 1e3 - wall);
        self.flops.push(flops as f64);
        self.wire_bytes.push(wire as f64);
        let collectives = ls.spans.iter().filter(|s| s.lane != ExecLane::Compute).count();
        self.collectives.push(collectives as f64);
        self.trace_events.push(events as f64);
    }

    fn report(&self, report: &mut Report, modelled_nic_bytes: f64) {
        report.put("minidl.lane_wall_ms", median(&self.lane_wall_ms), "ms");
        report.put("minidl.lane_compute_ms", median(&self.lane_compute_ms), "ms");
        report.put("minidl.lane_gather_ms", median(&self.lane_gather_ms), "ms");
        report.put("minidl.lane_reduce_ms", median(&self.lane_reduce_ms), "ms");
        report.put("minidl.lane_overlap_frac", median(&self.lane_overlap_frac), "ratio");
        report.put("minidl.exec_other_ms", median(&self.exec_other_ms), "ms");
        report.put("minidl.run_startstop_ms", median(&self.run_startstop_ms), "ms");
        report.put("minidl.flops_per_unit", median(&self.flops), "count");
        let wire = median(&self.wire_bytes);
        report.put("dataplane.wire_bytes_per_unit", wire, "B");
        report.put("dataplane.wire_amplification", wire / modelled_nic_bytes, "ratio");
        report.put("dataplane.collectives_per_unit", median(&self.collectives), "count");
        report.put("trace.events_per_unit", median(&self.trace_events), "count");
    }
}

/// Run one round of `w` and report it.
pub fn run_round(w: &LmWorkload, args: &RoundArgs, started: Instant) -> Report {
    // One kernel thread per rank: the ranks already fill both cores.
    set_kernel_threads(Some(1));

    // Set-up: the reference outcome, then two untimed warm-up units (thread
    // pools, allocator, page cache), each held to the reference too.
    let reference = w.unit(w.reference.0, w.reference.1).expect("the reference run failed");
    for _ in 0..2 {
        let warm = w.unit(w.transport, w.setup.prefetch_depth);
        assert!(passes(&warm, &reference), "a warm-up unit does not match the reference run");
    }
    let recorder = mics_trace::global();
    if args.traced {
        recorder.enable();
    }
    let setup_s = started.elapsed().as_secs_f64();

    let mut log = SpanLog::new("main");
    let mut samples = UnitSamples::default();
    let mut program_trace = Trace::new();
    let mut unit_secs = Vec::new();
    let mut failed = 0;
    let clock = WindowClock::start(args.window_s);
    loop {
        let (flops0, wire0) = (flops_total(), socket_tx_bytes());
        let span = log.open("unit", unit_secs.len() as u64, None);
        let out = w.unit(w.transport, w.setup.prefetch_depth);
        let secs = log.close(span);
        unit_secs.push(secs);
        if !passes(&out, &reference) {
            failed += 1;
        } else if let (true, Some(out)) = (args.traced, &out) {
            let events = recorder.drain();
            let (flops, wire) = (flops_total() - flops0, socket_tx_bytes() - wire0);
            samples.record(out, secs, flops, wire, events.len());
            // The first unit's events are the ones written out: every unit
            // records the same program, and a whole window of socket frames
            // would make a file no viewer opens.
            if program_trace.is_empty() {
                program_trace = events;
            }
        }
        if clock.over() {
            break;
        }
    }
    let window = clock.finish(unit_secs, failed);
    recorder.disable();

    let mut report = Report::default();
    report_window(&mut report, &window, w.tokens_per_unit(), setup_s);
    if args.traced {
        samples.report(&mut report, w.modelled_nic_bytes_per_unit());
        report.put("dataplane.comm_errors", window.failed_units as f64, "count");
        minidl_probes(&mut report, &mut log, w, args);
        dataplane_probes(&mut report, &mut log, w, args);
        compress_probes(&mut report, &mut log, w, args);
        trace_probes(&mut report, args);
        write_trace(args, &[&log], program_trace);
    }
    report_peak_rss(&mut report);
    report
}

/// `minidl`: the model's kernels on one thread, the optimizer on one shard,
/// lowering the step program, and what the async executor buys.
fn minidl_probes(report: &mut Report, log: &mut SpanLog, w: &LmWorkload, args: &RoundArgs) {
    let s = &w.setup;
    let numel = s.model.num_params();
    let params = s.model.init_params(s.seed);
    let tokens = token_batch(&s.model, s.seed, 0, 0, 0, s.micro_batch);
    let flops0 = flops_total();
    let secs = log.probe("minidl.loss_and_grad", args.reps(30), || {
        black_box(s.model.loss_and_grad(black_box(&params), &tokens));
    });
    let gflops = (flops_total() - flops0) as f64 / secs.iter().sum::<f64>() / 1e9;
    report.put("minidl.loss_and_grad_ms", median(&secs) * 1e3, "ms");
    report.put("minidl.kernel_gflops", gflops, "GFLOP/s");

    let shard = numel.div_ceil(s.partition_size);
    let (_, grad) = s.model.loss_and_grad(&params, &tokens);
    let mut master = params[..shard].to_vec();
    let mut adam = Adam::new(shard, s.lr);
    let secs = log.probe("minidl.adam_step", args.reps(60), || {
        adam.step(black_box(&mut master), &grad[..shard]);
    });
    report.put("minidl.adam_step_us", median(&secs) * 1e6, "us");

    let hyper = w.hyper();
    let secs = log.probe("minidl.step_program_emit", args.reps(200), || {
        black_box(step_program(black_box(&hyper), w.schedule, numel));
    });
    report.put("minidl.step_program_emit_us", median(&secs) * 1e6, "us");

    // Inline ÷ async unit time, only where the workload runs the async
    // executor; units of the two depths alternate so drift hits both.
    if s.prefetch_depth > 0 {
        let (mut inline, mut overlapped) = (Vec::new(), Vec::new());
        for _ in 0..args.reps(5) {
            for (depth, secs) in [(0, &mut inline), (s.prefetch_depth, &mut overlapped)] {
                secs.extend(log.probe("minidl.async_speedup", 1, || {
                    black_box(w.unit(w.transport, depth));
                }));
            }
        }
        report.put("minidl.async_speedup", median(&inline) / median(&overlapped), "ratio");
    }
}

/// `dataplane`: the workload's collectives on its own transport, group sizes
/// and message lengths — rank 0's time from a barrier to its own return.
fn dataplane_probes(report: &mut Report, log: &mut SpanLog, w: &LmWorkload, args: &RoundArgs) {
    let s = &w.setup;
    let (world, p) = (s.world, s.partition_size);
    let shard = s.model.num_params().div_ceil(p);
    // Gradient all-reduce: the whole model across the world under the
    // ZeRO-3 schedule, one shard across the replication group under 2-hop.
    let whole_model = matches!(w.schedule, SyncSchedule::PerMicroStepAllReduce);
    let int8 = QuantScheme::int8();
    let (reps, rtt_reps) = (args.reps(30), args.reps(300));
    let span = log.open("dataplane.collectives", 0, None);
    let mut timings = run_ranks_on(w.transport, world, |mut comm| {
        let rank = comm.rank();
        let part = comm.split((rank / p) as i64, rank as i64);
        let repl = comm.split((rank % p) as i64, rank as i64);
        let shard_buf = vec![1.0f32 + rank as f32; shard];
        let full_buf = vec![1.0f32 + rank as f32; shard * p];
        let (reduce_group, reduce_buf) =
            if whole_model { (&comm, &full_buf) } else { (&repl, &shard_buf) };
        let mut out: Vec<(&'static str, Vec<f64>)> = Vec::new();
        let mut timed = |name: &'static str, reps: usize, f: &mut dyn FnMut()| {
            let secs = (0..reps)
                .map(|_| {
                    comm.barrier();
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .collect();
            out.push((name, secs));
        };
        timed("dataplane.all_gather_ms", reps, &mut || {
            black_box(part.all_gather(&shard_buf));
        });
        timed("dataplane.reduce_scatter_ms", reps, &mut || {
            black_box(part.reduce_scatter(&full_buf));
        });
        timed("dataplane.all_reduce_ms", reps, &mut || {
            black_box(reduce_group.all_reduce(reduce_buf));
        });
        timed("dataplane.q8_all_gather_ms", reps, &mut || {
            black_box(quantized_all_gather(&part, &shard_buf, int8));
        });
        timed("dataplane.q8_all_reduce_ms", reps, &mut || {
            black_box(quantized_all_reduce(reduce_group, reduce_buf, int8));
        });
        timed("dataplane.exchange_rtt_us", rtt_reps, &mut || {
            black_box(reduce_group.all_reduce(&[1.0]));
        });
        // The async path needs the communicator mutably, so it cannot share
        // `timed`'s barrier; `wait` itself is the rendezvous.
        let mut starter = comm.split(0, rank as i64);
        let secs = (0..rtt_reps)
            .map(|_| {
                starter.barrier();
                let t = Instant::now();
                black_box(starter.start_all_reduce(&[1.0]).wait()).expect("start/wait failed");
                t.elapsed().as_secs_f64()
            })
            .collect();
        starter.quiesce();
        out.push(("dataplane.start_wait_us", secs));
        out
    });
    log.close(span);
    for (name, secs) in timings.swap_remove(0) {
        let (scale, unit) = if name.ends_with("_us") { (1e6, "us") } else { (1e3, "ms") };
        report.put(name, median(&secs) * scale, unit);
    }

    let secs = log.probe("dataplane.world_startstop", args.reps(12), || {
        run_ranks_on(w.transport, world, |comm| comm.rank());
    });
    report.put("dataplane.world_startstop_ms", median(&secs) * 1e3, "ms");
}

/// `compress`: the int8 codec on one model-sized buffer.
fn compress_probes(report: &mut Report, log: &mut SpanLog, w: &LmWorkload, args: &RoundArgs) {
    let scheme = QuantScheme::int8();
    let data = w.setup.model.init_params(w.setup.seed);
    let gb = (data.len() * 4) as f64 / 1e9;
    let reps = args.reps(30);
    let secs = log.probe("compress.quantize", reps, || {
        black_box(quantize(black_box(&data), scheme));
    });
    report.put("compress.quantize_gbps", gb / median(&secs), "GB/s");
    let q = quantize(&data, scheme);
    let secs = log.probe("compress.dequantize", reps, || {
        black_box(dequantize(black_box(&q)));
    });
    report.put("compress.dequantize_gbps", gb / median(&secs), "GB/s");
    let secs = log.probe("compress.words_roundtrip", reps, || {
        black_box(Quantized::from_words(&black_box(&q).to_words(), data.len(), scheme));
    });
    report.put("compress.words_roundtrip_gbps", gb / median(&secs), "GB/s");
    report.put("compress.wire_ratio", scheme.ratio(data.len()), "ratio");
}
