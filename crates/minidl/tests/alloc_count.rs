//! Counts the heap allocations of the transformer's stage calls with a
//! counting global allocator: once a [`Workspace`] has held a stage, a
//! `stage_loss_and_grad` call allocates only the two gradients it returns,
//! whatever the layer count and the micro-batch.
//!
//! The count is per thread, so the harness's other threads do not add to
//! it.

use mics_minidl::{TinyTransformer, Workspace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local without a destructor, so touching it
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> usize {
    let before = ALLOCS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCS.with(Cell::get) - before
}

fn tokens(model: &TinyTransformer, batch: usize) -> Vec<usize> {
    (0..batch * (model.seq_len + 1)).map(|i| (i * 31 + i * i * 7 + 3) % model.vocab).collect()
}

/// After a warm-up call, the whole model as one stage allocates its
/// gradient alone, and the last of two stages its gradient and its input
/// gradient, at layers {1, 2, 4} × micro-batch {1, 4, 16}.
#[test]
fn a_reused_workspace_leaves_only_the_returned_gradients() {
    for layers in [1, 2, 4] {
        for batch in [1, 4, 16] {
            let model = TinyTransformer::new(16, 9, 16, 2, 24, layers);
            let params = model.init_params(7);
            let toks = tokens(&model, batch);
            let ws = &mut Workspace::default();
            let mut whole = || model.stage_loss_and_grad(ws, &params, 0..layers, &toks, None, None);
            let _ = whole();
            let got = allocations(whole);
            assert_eq!(got, 1, "{layers} layers, micro-batch {batch}: the whole model as a stage");

            if layers < 2 {
                continue;
            }
            let cut = layers / 2;
            let p = &params[model.stage_params(cut..layers)];
            let input = vec![0.25f32; batch * model.seq_len * model.d_model];
            let ws = &mut Workspace::default();
            let mut last =
                || model.stage_loss_and_grad(ws, p, cut..layers, &toks, Some(&input), None);
            let _ = last();
            let got = allocations(last);
            assert_eq!(got, 2, "{layers} layers, micro-batch {batch}: the last of two stages");
        }
    }
}

/// `loss_and_grad` builds its workspace per call: two allocations, the
/// workspace and the gradient, at `lm_compute_local`'s shape.
#[test]
fn loss_and_grad_allocates_its_workspace_and_its_gradient() {
    let model = TinyTransformer::new(64, 32, 64, 4, 256, 2);
    let params = model.init_params(3);
    let toks = tokens(&model, 16);
    assert_eq!(allocations(|| model.loss_and_grad(&params, &toks)), 2);
}
