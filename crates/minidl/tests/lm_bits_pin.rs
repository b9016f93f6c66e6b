//! Pins the exact output bits of `TinyTransformer::loss_and_grad` and of one
//! short `train_lm` run. The kernels under the model may be rewritten for
//! speed or sharing only: every loss bit and every gradient bit must stay
//! what these constants say, with the SIMD path forced on and forced off.
//!
//! The shapes are the benchmark's LM models plus tail shapes that push the
//! kernels off their lane and unroll multiples: sequence lengths that are
//! not a multiple of 8, head widths of 3, 4, 5, 8 and 24, reduction widths
//! with `k % 4 ≠ 0`, and odd row counts.

use mics_minidl::kernels;
use mics_minidl::{train_lm, LmSetup, LossScale, SyncSchedule, TinyTransformer};
use std::sync::Mutex;

/// Serializes the tests of this binary: they flip the process-global SIMD
/// knob.
static KNOBS: Mutex<()> = Mutex::new(());

/// 64-bit FNV-1a over the little-endian bytes of each value's bits.
fn fnv(xs: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for byte in x.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `(vocab, seq_len, d_model, heads, ffn, layers, batch)`, the loss bits and
/// the FNV-1a hash of the gradient bits.
type Pin = ((usize, usize, usize, usize, usize, usize, usize), u32, u64);

const PINS: &[Pin] = &[
    // `lm_compute_local`'s model (its micro-batch of 16 cut to 2).
    ((64, 32, 64, 4, 256, 2, 2), 0x4089_ab9b, 0x2273_3cf9_b7b0_02d2),
    // `lm_comm_socket` and `lm_q8_zero3_local`'s wide model, micro-batch 1.
    ((128, 8, 96, 4, 384, 2, 1), 0x4098_f13f, 0x5569_1781_4bce_eb14),
    // The fig15 fidelity model.
    ((9, 6, 8, 2, 16, 2, 4), 0x4012_8990, 0x4266_a836_017d_fa03),
    // Tails: head width 3, d % 4 = 1, odd ffn, odd batch.
    ((11, 5, 9, 3, 13, 1, 3), 0x4024_a93c, 0xeab1_3a4f_c938_8c2b),
    // Head width 4, t = 4.
    ((7, 4, 12, 3, 20, 1, 2), 0x4017_e48c, 0x0172_beb2_ba98_f569),
    // Head width 5, t = 13, d % 4 = 2.
    ((13, 13, 10, 2, 22, 1, 1), 0x4029_9d07, 0x976b_2ebd_768a_e004),
    // Head width 8, t = 17, ffn % 4 = 3, odd vocab.
    ((17, 17, 16, 2, 27, 2, 1), 0x4047_e0e0, 0x83ca_c2cd_12e6_a094),
    // Head width 24, t = 9.
    ((19, 9, 48, 2, 40, 1, 1), 0x4061_3adb, 0x8b15_7640_d38a_ddea),
];

fn tokens(vocab: usize, t: usize, batch: usize, salt: usize) -> Vec<usize> {
    (0..batch * (t + 1)).map(|i| (i * 31 + salt * 17 + i * i * 7 + 3) % vocab).collect()
}

#[test]
fn loss_and_grad_bits_are_pinned_with_simd_on_and_off() {
    let _guard = KNOBS.lock().unwrap_or_else(|p| p.into_inner());
    let mut got = Vec::new();
    for (salt, &((v, t, d, h, f, l, batch), _, _)) in PINS.iter().enumerate() {
        let model = TinyTransformer::new(v, t, d, h, f, l);
        let params = model.init_params(1000 + salt as u64);
        let toks = tokens(v, t, batch, salt);
        let mut seen = None;
        for simd in [Some(true), Some(false)] {
            kernels::set_simd(simd);
            let (loss, grad) = model.loss_and_grad(&params, &toks);
            let bits = (loss.to_bits(), fnv(&grad));
            if let Some(first) = seen {
                assert_eq!(bits, first, "{:?}: SIMD on and off disagree", PINS[salt].0);
            }
            seen = Some(bits);
        }
        kernels::set_simd(None);
        got.push((PINS[salt].0, seen.unwrap().0, seen.unwrap().1));
    }
    for (want, got) in PINS.iter().zip(&got) {
        assert_eq!(
            (want.1, want.2),
            (got.1, got.2),
            "{:?}: loss / gradient bits moved (loss {:#010x}, gradient hash {:#018x})",
            want.0,
            got.1,
            got.2
        );
    }
}

/// The `losses` and `final_params` of a short data-parallel `train_lm`
/// run: FNV-1a of each, pinned.
#[test]
fn train_lm_run_bits_are_pinned() {
    let _guard = KNOBS.lock().unwrap_or_else(|p| p.into_inner());
    let setup = LmSetup {
        model: TinyTransformer::new(16, 9, 16, 2, 24, 2),
        world: 2,
        partition_size: 2,
        micro_batch: 2,
        accum_steps: 2,
        iterations: 3,
        lr: 0.01,
        seed: 37,
        quantize: false,
        loss_scale: LossScale::None,
        clip_grad_norm: None,
        comm_quant: None,
        prefetch_depth: 0,
    };
    let out = train_lm(&setup, SyncSchedule::TwoHop);
    assert_eq!(out.losses.len(), 3);
    let got = (fnv(&out.losses), fnv(&out.final_params));
    assert_eq!(
        got,
        (0xa9c4_cbd4_3dea_04ab, 0xfa99_f798_ee4f_fe5b),
        "train_lm bits moved: (losses, final_params) hashes {got:#018x?}"
    );
}
