//! Reused gather buffers: MiCS's pre-allocated, proactively recycled memory
//! (paper §4, "Memory defragmentation") for the real executor's gathers.

/// A checkout/checkin pool of at most `count` fixed-capacity `f32` buffers
/// for the gather hot loop.
///
/// The minidl executor double-buffers gathered parameters: while compute
/// consumes one full-parameter buffer, the comm-progress thread fills the
/// other. Naively that reallocates a `numel`-sized `Vec` every layer of every
/// micro-step; this pool allocates each buffer once (at most `count` of them,
/// bounded up front) and then recycles it for the rest of training.
/// `reuses()` exposes how many allocations were avoided so tests can pin the
/// steady-state-allocation-free property.
#[derive(Debug)]
pub struct GatherBuffers {
    elems: usize,
    count: usize,
    free: Vec<Vec<f32>>,
    outstanding: usize,
    allocations: u64,
    reuses: u64,
}

impl GatherBuffers {
    /// Build a pool of at most `count` buffers of `elems` `f32`s each.
    pub fn new(elems: usize, count: usize) -> Self {
        GatherBuffers {
            elems,
            count,
            free: Vec::with_capacity(count),
            outstanding: 0,
            allocations: 0,
            reuses: 0,
        }
    }

    /// Check a buffer out. Reuses a previously checked-in buffer when one is
    /// available; otherwise allocates a fresh one.
    ///
    /// # Panics
    /// Panics if `count` buffers are already outstanding.
    pub fn checkout(&mut self) -> Vec<f32> {
        assert!(self.outstanding < self.count, "all {} gather buffers are out", self.count);
        self.outstanding += 1;
        if let Some(buf) = self.free.pop() {
            self.reuses += 1;
            return buf;
        }
        self.allocations += 1;
        Vec::with_capacity(self.elems)
    }

    /// Return a buffer to the pool. Its contents are kept (the next checkout
    /// clears or overwrites as it sees fit); its capacity is what's recycled.
    pub fn checkin(&mut self, buf: Vec<f32>) {
        debug_assert!(self.outstanding > 0, "checkin without checkout");
        self.outstanding = self.outstanding.saturating_sub(1);
        self.free.push(buf);
    }

    /// Number of buffers handed out and not yet checked back in.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// How many checkouts were served by recycling instead of allocating.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// How many distinct buffers were ever allocated.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_buffers_recycle_instead_of_allocating() {
        let mut pool = GatherBuffers::new(256, 2);
        // Double-buffer steady state: at most two outstanding at once.
        let mut a = pool.checkout();
        a.resize(256, 1.0);
        let b = pool.checkout();
        assert_eq!(pool.outstanding(), 2);
        pool.checkin(a);
        pool.checkin(b);
        for _ in 0..50 {
            let x = pool.checkout();
            let y = pool.checkout();
            assert!(x.capacity() >= 256);
            pool.checkin(x);
            pool.checkin(y);
        }
        assert_eq!(pool.allocations(), 2, "steady state must not allocate");
        assert_eq!(pool.reuses(), 100);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    #[should_panic(expected = "gather buffers are out")]
    fn gather_buffers_bound_outstanding_count() {
        let mut pool = GatherBuffers::new(64, 2);
        let _a = pool.checkout();
        let _b = pool.checkout();
        let _ = pool.checkout();
    }
}
