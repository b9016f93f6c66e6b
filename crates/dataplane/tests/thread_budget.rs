//! The socket transport's thread budget. A world of `w` socket ranks runs
//! `3w + 1` transport threads: each rank's reader, each hub connection's
//! reader and writer, and the hub's accept thread. Liveness rides the
//! readers and writers; there is no timer thread.
//!
//! This is the only test in its binary, so no other test's threads are
//! counted: every thread of the process whose name starts with `mics-` is
//! this world's.
#![cfg(target_os = "linux")]

use mics_dataplane::{run_ranks_on, TransportKind};

/// Threads of this process whose name starts with `mics-`.
fn transport_threads() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs is mounted");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("mics-"))
        .count()
}

#[test]
fn a_socket_world_runs_three_transport_threads_per_rank_plus_one() {
    let world = 4;
    let counts = run_ranks_on(TransportKind::Socket, world, |c| {
        // After a barrier every rank's connection is registered at the hub,
        // so its writer runs; the second keeps every rank alive until rank
        // 0 has counted.
        c.barrier();
        let count = (c.rank() == 0).then(transport_threads);
        c.barrier();
        count
    });
    assert_eq!(counts[0], Some(3 * world + 1));
}
