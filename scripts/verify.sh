#!/usr/bin/env bash
# Full pre-merge gate: release build, the whole test suite, and lint-clean
# clippy across every target. Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The dataplane's socket tests once more under heavy contention: 16 test
# threads is the parallelism that once exposed a flake in a shared
# counter, so the hub's forwarding and failure paths run here with many
# worlds in one process.
echo "==> cargo test -q -p mics-dataplane -- --test-threads 16"
cargo test -q -p mics-dataplane -- --test-threads 16

# The same contention for mics-minidl, whose rank threads share sinks and
# communicators: a race between them (say, two stages depositing into one
# checkpoint slot) shows up when many runs share two cores.
echo "==> cargo test -q -p mics-minidl -- --test-threads 16"
cargo test -q -p mics-minidl -- --test-threads 16

# And for mics-planner, whose single-flight cache tests race a leader
# against its duplicates: they wait on conditions, never on sleeps, so
# they must hold at this contention too.
echo "==> cargo test -q -p mics-planner -- --test-threads 16"
cargo test -q -p mics-planner -- --test-threads 16

# The codec and the collectives once more in release: a debug build
# vectorises nothing, so only here do the encoder's AVX2 instantiation and
# the optimised landing face the bit-identity oracles.
echo "==> cargo test -q --release -p mics-compress -p mics-dataplane"
cargo test -q --release -p mics-compress -p mics-dataplane

# The same for mics-minidl: the loss/gradient bit pins (tests/lm_bits_pin.rs)
# and the kernels' bit-identity matrix (tests/kernels_v2.rs) also face the
# optimised build of the lane bodies, not only the debug one.
echo "==> cargo test -q --release -p mics-minidl"
cargo test -q --release -p mics-minidl

# The two crates that hold `unsafe` code (the kernels' lane bodies, the
# codec's SIMD encoder and decoder) once more under AddressSanitizer, in
# release so the unchecked loads run as shipped: an out-of-bounds load or
# store that a debug_assert guards only in debug builds fails here. Doctests
# are left out (rustdoc does not get the sanitizer flags). It needs the
# nightly toolchain and fails, not skips, without it; its own target dir
# keeps the instrumented build apart from the others.
echo "==> AddressSanitizer: cargo +nightly test --release -p mics-minidl -p mics-compress --lib --tests"
if ! cargo +nightly --version >/dev/null 2>&1; then
    echo "the AddressSanitizer step needs the nightly toolchain" >&2
    exit 1
fi
RUSTFLAGS=-Zsanitizer=address CARGO_TARGET_DIR=target/asan \
    cargo +nightly test -q --release --target x86_64-unknown-linux-gnu \
    -p mics-minidl -p mics-compress --lib --tests

# The simulator's one-rank-per-class walk against the full walk on the
# whole differential grid (every preset model, instance, node count,
# strategy, accumulation and pipeline depth; p3dn variants of 2, 4, 6, 12
# and 16 GPUs per node, clean and with a straggler; plus every tuner
# candidate): too slow for a debug run, so the tier-1 suite runs a sample.
echo "==> cargo test -q --release -p mics-core -- --include-ignored reduced_walk_equals_full_walk_on_the_whole_grid"
cargo test -q --release -p mics-core -- --include-ignored reduced_walk_equals_full_walk_on_the_whole_grid

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# benchmark/ is a workspace of its own that pins public names of crates/*
# (BENCHMARK.json's pipeline builds it from source): its tests type-check
# every pinned call, so an API break fails here and not only there.
# benchmark/run.sh builds without --locked, so a crates/* change that moves
# the dependency graph (say, dropping a crate's dependency) would rewrite
# benchmark/Cargo.lock at benchmark time. Resolving it --locked first, before
# any benchmark build below can refresh it, makes such a change fail here.
echo "==> benchmark/Cargo.lock is current"
cargo metadata --locked --offline --format-version 1 --manifest-path benchmark/Cargo.toml >/dev/null

echo "==> benchmark package: cargo test"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo bench --no-run (benches must always compile)"
cargo bench --workspace --no-run

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# The schedule-IR golden dumps are load-bearing: any drift in emission
# order, dependency edges or wire annotations must be an intentional,
# reviewed regeneration (MICS_UPDATE_GOLDENS=1), never an accident.
echo "==> golden schedule dumps"
cargo test -q --test schedule_goldens

# Same story for the trace layer: every trace document must satisfy the
# Trace Event Format invariants and the simulator trace is golden-pinned.
echo "==> trace schema + golden trace"
cargo test -q --test trace_schema

# A golden file no test names is one a deleted test left behind: every
# tests/goldens/<name>.txt must appear as a "<name>" literal in tests/*.rs.
echo "==> every golden file is named by a test"
for golden in tests/goldens/*.txt; do
    name="$(basename "${golden}" .txt)"
    if ! grep -qF "\"${name}\"" tests/*.rs; then
        echo "orphan golden ${golden}: no test names \"${name}\"" >&2
        exit 1
    fi
done

# perf-diff is the snapshot regression gate; prove the gate itself works
# before trusting it: identical snapshots must pass, a perturbed copy
# (one snapshot dropped — always a regression) must exit nonzero.
echo "==> perf-diff self-check"
cargo build --release -q -p mics-cli --bin mics-sim
target/release/mics-sim perf-diff results results >/dev/null
PERTURBED="$(mktemp -d /tmp/mics-perfdiff.XXXXXX)"
cp results/*.json "${PERTURBED}/"
rm "${PERTURBED}/$(basename "$(find results -maxdepth 1 -name '*.json' | sort | head -n 1)")"
if target/release/mics-sim perf-diff results "${PERTURBED}" >/dev/null 2>&1; then
    echo "perf-diff FAILED to flag a perturbed snapshot" >&2
    rm -rf "${PERTURBED}"
    exit 1
fi
rm -rf "${PERTURBED}"
# ...and the addition case: a snapshot that only gains files (a new bench
# landing) is informational, never a regression.
AUGMENTED="$(mktemp -d /tmp/mics-perfdiff.XXXXXX)"
cp results/*.json "${AUGMENTED}/"
echo '{"v":1}' > "${AUGMENTED}/zz_addition_selfcheck.json"
# Capture, then grep: `| grep -q` closes the pipe at first match and the
# still-printing writer dies on SIGPIPE.
ADDITION_OUT="$(target/release/mics-sim perf-diff results "${AUGMENTED}")"
grep -q 'new files (not gated): zz_addition_selfcheck.json' <<< "${ADDITION_OUT}"
rm -rf "${AUGMENTED}"

# Every bench and smoke step below rewrites its results/ artifact with this
# host's timings. The gate leaves the tree as it found it: results/ is put
# back on exit, pass or fail. To regenerate an artifact, run its bench bin
# directly (`cargo run --release -p mics-bench --bin <name>`).
RESULTS_SNAPSHOT="$(mktemp -d /tmp/mics-results.XXXXXX)"
cp -a results/. "${RESULTS_SNAPSHOT}/"
trap 'rm -rf results && mv "${RESULTS_SNAPSHOT}" results' EXIT

# "results/ byte-unchanged" as a gate: the simulator-only benches are
# deterministic, so regenerating their artifacts must reproduce the
# committed files to the byte. Runs first, while the snapshot still equals
# everything else in results/ (plain diff: the gate also runs from a
# `git archive` tarball). Three real-backend benches are here too, because
# the bit-identity contracts fix what they record: `ext_elastic`'s
# continuity flags and losses, `fig15_fidelity`'s per-schedule loss curves,
# and `ext_compress`'s exact and int8 losses and wire sizes. `ext_elastic`
# also asserts the spot-trace goodput claims (elastic ≥ static on the
# identical seeded timeline, monotone degradation with churn) and the
# bit-exact shrink/grow continuity on both transports; `ext_compress`
# asserts its ~4× wire claim and the int8 fidelity envelope. The
# `trace_timeline` example's simulated chrome traces (`mics_timeline.json`,
# `zero3_timeline.json`) are deterministic too.
echo "==> deterministic simulator and training artifacts regenerate byte-identically"
for bin in fig01_effective_bandwidth fig06_strong_scaling_bert fig07_strong_scaling_other \
    fig08_tflops fig09_a100_400gbps fig10a_megatron fig10b_wideresnet \
    fig11_partition_group_size fig12a_hierarchical_microbench fig12b_hierarchical_e2e \
    fig13_two_hop fig14_impl_opts table1_models case_study_100b \
    ext_ablation ext_straggler ext_recovery ext_elastic fig15_fidelity ext_compress; do
    cargo run --release -q -p mics-bench --bin "${bin}" >/dev/null
done
cargo run --release -q --example trace_timeline >/dev/null
diff -r "${RESULTS_SNAPSHOT}" results

# Kernels-v2 perf gate: re-run the kernel microbenchmarks. The bench gates
# itself on a ratio measured inside this one run — SIMD ÷ blocked ≥ 2× on
# the GEMM-shaped kernels (benches/kernels.rs) — and rewrites the artifact;
# its exit status is the gate. The committed snapshot holds another host's
# absolute nanoseconds, so the perf-diff against it is printed for the
# reader and decides nothing. Nothing else in results/ has been rewritten
# yet, so the other files compare equal.
echo "==> kernels bench (SIMD-vs-blocked ratio gate) + perf-diff vs snapshot (informational)"
cargo bench -q -p mics-bench --bench kernels >/dev/null
target/release/mics-sim perf-diff "${RESULTS_SNAPSHOT}" results --threshold 40 || true

# A traced fidelity run must still produce a loadable merged document.
echo "==> fidelity trace smoke"
FID_TRACE="$(mktemp -u /tmp/mics-fidelity.XXXXXX.json)"
target/release/mics-sim fidelity --iterations 2 --trace "${FID_TRACE}" >/dev/null
grep -q '"traceEvents"' "${FID_TRACE}"
rm -f "${FID_TRACE}"

# Smoke-run the overlap bench: it asserts bit-identity inline vs async, a
# positive measured overlap fraction, the structural deferral/prefetch
# counts, and the wall-clock claim for the host's cores against its 8 rank
# threads. (The compression and ablation benches, with their own
# assertions, already ran with the deterministic artifacts.)
echo "==> ext_overlap (smoke)"
cargo run --release -q -p mics-bench --bin ext_overlap >/dev/null

# The isoFLOP sweep in miniature: --smoke walks the same code path (budget
# honoring through the kernel FLOP counters, all three schedules with the
# agreement assertion) at a toy budget and never touches the committed
# artifact. A wedged rank thread must fail the gate, not hang it.
echo "==> ext_sweep (smoke, capped wall clock)"
timeout 120 cargo run --release -q -p mics-bench --bin ext_sweep -- --smoke >/dev/null

# The repo benchmark in miniature: one short traced round per workload,
# every registered metric reported, finite and in its unit, every unit equal
# to its reference run (~25 s after the build).
echo "==> benchmark/run.sh --smoke (capped wall clock)"
# (built first, where run.sh will look, so the cap times the run alone)
cargo build --release --offline -q --manifest-path benchmark/Cargo.toml \
    --target-dir "${CARGO_TARGET_DIR:-benchmark/target}"
timeout 120 bash benchmark/run.sh --smoke >/dev/null

# The multi-process recovery bench spawns real rank processes over the
# socket transport and SIGKILLs one mid-all-gather; survivors must detect
# the death within the deadline and rebuild. A wedged rendezvous must
# fail the gate, not hang it, hence the hard wall-clock cap.
echo "==> mics-rankd bench (socket-transport smoke, capped wall clock)"
cargo build --release -q -p mics-cli --bin mics-rankd
timeout 150 target/release/mics-rankd bench >/dev/null

# The planner service bench drives 1200+ socket queries through the memo
# cache and asserts the hit-rate / dedup-collapse / byte-identity claims
# recorded in results/ext_serve.json.
echo "==> ext_serve (planner service smoke, capped wall clock)"
timeout 150 cargo run --release -q -p mics-bench --bin ext_serve >/dev/null

# And the daemon round-trips end to end: serve on a Unix socket, query it,
# shut it down. A wedged server must fail the gate, not hang it.
echo "==> mics-plannerd serve/query/shutdown round trip"
cargo build --release -q -p mics-cli --bin mics-plannerd
PLANNER_SOCK="$(mktemp -u /tmp/mics-plannerd.XXXXXX.sock)"
timeout 60 target/release/mics-plannerd serve --addr "unix:${PLANNER_SOCK}" &
PLANNER_PID=$!
for _ in $(seq 50); do [ -S "${PLANNER_SOCK}" ] && break; sleep 0.1; done
# (plain grep, not -q: -q exits at first match and the early pipe close
# makes the query's stdout print die on EPIPE)
timeout 30 target/release/mics-plannerd query --addr "unix:${PLANNER_SOCK}" \
    --model bert-10b --nodes 2 --strategy mics:8 | grep '"report"' >/dev/null
timeout 30 target/release/mics-plannerd bench --addr "unix:${PLANNER_SOCK}" \
    --clients 2 --queries 8 >/dev/null
timeout 30 target/release/mics-plannerd stop --addr "unix:${PLANNER_SOCK}"
wait "${PLANNER_PID}"

echo "verify: all green"
