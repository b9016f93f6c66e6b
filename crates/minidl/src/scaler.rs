//! Dynamic loss scaling for mixed-precision training.
//!
//! fp16 gradients underflow easily; production stacks (including the
//! DeepSpeed base MiCS builds on) multiply the loss by a large scale before
//! backward, divide gradients by it before the optimizer step, *skip* steps
//! whose gradients overflowed to inf/NaN, and adapt the scale: halve on
//! overflow, double after a window of clean steps.

/// Loss-scaling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossScale {
    /// No scaling (fp32 training).
    None,
    /// DeepSpeed-style dynamic scaling.
    Dynamic {
        /// Initial scale (DeepSpeed default: 2¹⁶).
        init: f32,
        /// Clean steps before the scale doubles (DeepSpeed default: 2000;
        /// tests use small values).
        growth_interval: u32,
    },
}

/// Mutable state of the dynamic scaler.
#[derive(Debug, Clone)]
pub struct ScalerState {
    policy: LossScale,
    scale: f32,
    good_steps: u32,
    skipped: u32,
}

/// A point-in-time snapshot of a [`ScalerState`] — part of a training
/// checkpoint. Resuming without it would silently reset the dynamic scale
/// and the growth window, breaking bit-exact resume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalerSnapshot {
    /// The loss scale at the snapshot.
    pub scale: f32,
    /// Clean steps accumulated toward the next scale growth.
    pub good_steps: u32,
    /// Optimizer steps skipped so far.
    pub skipped: u32,
}

impl ScalerState {
    /// Initialize from a policy.
    pub fn new(policy: LossScale) -> Self {
        let scale = match policy {
            LossScale::None => 1.0,
            LossScale::Dynamic { init, .. } => init,
        };
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        ScalerState { policy, scale, good_steps: 0, skipped: 0 }
    }

    /// Snapshot the mutable state for a checkpoint.
    pub fn snapshot(&self) -> ScalerSnapshot {
        ScalerSnapshot { scale: self.scale, good_steps: self.good_steps, skipped: self.skipped }
    }

    /// Rebuild a scaler from a checkpointed snapshot under `policy`.
    pub fn resume(policy: LossScale, snap: ScalerSnapshot) -> Self {
        assert!(snap.scale.is_finite() && snap.scale > 0.0, "scale must be positive");
        ScalerState {
            policy,
            scale: snap.scale,
            good_steps: snap.good_steps,
            skipped: snap.skipped,
        }
    }

    /// The current multiplier applied to the loss (and so to gradients).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Number of optimizer steps skipped due to overflow so far.
    pub fn skipped_steps(&self) -> u32 {
        self.skipped
    }

    /// Record the outcome of one global step. `overflowed` must be the
    /// *globally agreed* flag (identical on every rank). Returns whether the
    /// optimizer step should be applied.
    pub fn update(&mut self, overflowed: bool) -> bool {
        match self.policy {
            LossScale::None => {
                if overflowed {
                    self.skipped += 1;
                }
                !overflowed
            }
            LossScale::Dynamic { growth_interval, .. } => {
                if overflowed {
                    self.skipped += 1;
                    self.good_steps = 0;
                    self.scale = (self.scale / 2.0).max(1.0);
                    false
                } else {
                    self.good_steps += 1;
                    if self.good_steps >= growth_interval {
                        self.good_steps = 0;
                        self.scale = (self.scale * 2.0).min(2f32.powi(24));
                    }
                    true
                }
            }
        }
    }
}

/// True if any element is non-finite (the per-rank half of overflow
/// detection; ranks combine their flags with a max-all-reduce).
pub fn has_overflow(grad: &[f32]) -> bool {
    grad.iter().any(|g| !g.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_policy_holds_scale() {
        let mut s = ScalerState::new(LossScale::None);
        assert_eq!(s.scale(), 1.0);
        assert!(s.update(false));
        assert!(!s.update(true)); // overflow skips the step
        assert_eq!(s.scale(), 1.0); // but never adapts
        assert_eq!(s.skipped_steps(), 1);
    }

    #[test]
    fn dynamic_halves_on_overflow_and_doubles_after_window() {
        let mut s = ScalerState::new(LossScale::Dynamic { init: 1024.0, growth_interval: 3 });
        assert!(!s.update(true));
        assert_eq!(s.scale(), 512.0);
        assert!(s.update(false));
        assert!(s.update(false));
        assert_eq!(s.scale(), 512.0, "not yet grown");
        assert!(s.update(false));
        assert_eq!(s.scale(), 1024.0, "grown after 3 clean steps");
    }

    #[test]
    fn overflow_resets_growth_window() {
        let mut s = ScalerState::new(LossScale::Dynamic { init: 256.0, growth_interval: 2 });
        assert!(s.update(false));
        assert!(!s.update(true)); // reset
        assert!(s.update(false));
        assert_eq!(s.scale(), 128.0, "window restarted after the overflow");
        assert!(s.update(false));
        assert_eq!(s.scale(), 256.0);
    }

    #[test]
    fn scale_bounded() {
        let mut s = ScalerState::new(LossScale::Dynamic { init: 2.0, growth_interval: 1 });
        for _ in 0..100 {
            s.update(true);
        }
        assert_eq!(s.scale(), 1.0, "never below 1");
        for _ in 0..100 {
            s.update(false);
        }
        assert_eq!(s.scale(), 2f32.powi(24), "capped at 2^24");
    }

    #[test]
    fn snapshot_resume_roundtrip() {
        let policy = LossScale::Dynamic { init: 512.0, growth_interval: 3 };
        let mut s = ScalerState::new(policy);
        s.update(false);
        s.update(true);
        s.update(false);
        let mut resumed = ScalerState::resume(policy, s.snapshot());
        // Both copies evolve identically from the snapshot on.
        for overflowed in [false, false, true, false, false] {
            assert_eq!(s.update(overflowed), resumed.update(overflowed));
            assert_eq!(s.snapshot(), resumed.snapshot());
        }
    }

    #[test]
    fn overflow_detection() {
        assert!(!has_overflow(&[1.0, -2.0, 0.0]));
        assert!(has_overflow(&[1.0, f32::INFINITY]));
        assert!(has_overflow(&[f32::NAN]));
        assert!(has_overflow(&[f32::NEG_INFINITY, 0.0]));
        assert!(!has_overflow(&[]));
    }
}
