#!/usr/bin/env bash
# Full CI line, runnable locally: tier-1, the release-profile and property
# suites, the nine artifact gates and the paper's evaluation.
# .github/workflows/ci.yml runs exactly this script, so a green local run
# predicts a green CI run.
set -euo pipefail
cd "$(dirname "$0")/.."

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

echo "== tier-1: build + full test suite =="
# `default-members` in the root manifest makes these cover every crate and
# shim, so the dev-profile suites of each package (robustness, membership,
# exchange digests, bonsai-obs, bonsai-verify, bonsai-par, ...) run here
# and are not repeated below.
cargo build --release
cargo test -q

echo "== docs: a broken intra-doc link fails the build =="
# Deleted or renamed items stay out of module docs and DESIGN-quoted links.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q

echo "== lint: the whole workspace stays clippy-clean =="
# Every target: libraries, binaries, examples, unit and integration tests.
cargo clippy --workspace --all-targets --offline -q -- -D warnings

echo "== shipped code generation: walk tests on the release profile =="
# The dev profile is opt-level 1 and does not vectorise; the lane kernels
# and their AVX2 and AVX-512 instantiations only exist at the release
# profile, so the lane-conformance and thread-sweep suites run there as well.
cargo test -q --release -p bonsai-tree --lib
cargo test -q --release -p bonsai-tree --test parallel_determinism
# The LET builder decides through `bonsai-tree`'s MAC, inlined into its own
# code generation; the cluster's "no walk forces a `Cut` node" check is a
# `debug_assert!`, compiled out here, so the containment proptest is what
# holds that decision on the shipped code (lib tests and proptests).
cargo test -q --release -p bonsai-domain
# Once more with AVX2+FMA switched on for the whole build: there the baseline
# instantiation inlines `vfmadd…pd` / `vfmadd…ps` instead of calling libm's
# `fma` / `fmaf` — the direct sum's `f64` and the walk's `f32` `mul_add`s —
# and the conformance, accuracy and digest tests must see the same bits:
# force bits do not depend on build flags either. The pinned exchange digests
# run there too, so the cluster's many-source walk is held bit for bit on
# every code generation, not only through the walk's own tests; so do the
# tree proptests and the oracle's tests, whose θ = 0 bounds hold the `f32`
# walk's round-off against `f64` direct summation. (Needs a CPU that has
# both.)
if grep -qw avx2 /proc/cpuinfo && grep -qw fma /proc/cpuinfo; then
  RUSTFLAGS="-C target-feature=+avx2,+fma" CARGO_TARGET_DIR="$scratch/target-avx2-fma" \
    cargo test -q --release -p bonsai-tree --lib -- kernels:: walk:: direct::
  RUSTFLAGS="-C target-feature=+avx2,+fma" CARGO_TARGET_DIR="$scratch/target-avx2-fma" \
    cargo test -q --release -p bonsai-tree --test proptests
  RUSTFLAGS="-C target-feature=+avx2,+fma" CARGO_TARGET_DIR="$scratch/target-avx2-fma" \
    cargo test -q --release -p bonsai-verify --lib oracle::
  RUSTFLAGS="-C target-feature=+avx2,+fma" CARGO_TARGET_DIR="$scratch/target-avx2-fma" \
    cargo test -q --release -p bonsai-sim --test exchange_digests
fi
# And with AVX-512 on for the whole build, where even the baseline
# instantiation runs 512-bit lane loops of `f64` and `f32` `vfmadd`s.
# (Needs a CPU with all four.)
if grep -qw avx512f /proc/cpuinfo && grep -qw avx512vl /proc/cpuinfo \
    && grep -qw avx2 /proc/cpuinfo && grep -qw fma /proc/cpuinfo; then
  RUSTFLAGS="-C target-feature=+avx512f,+avx512vl,+avx2,+fma" CARGO_TARGET_DIR="$scratch/target-avx512" \
    cargo test -q --release -p bonsai-tree --lib -- kernels:: walk:: direct::
  RUSTFLAGS="-C target-feature=+avx512f,+avx512vl,+avx2,+fma" CARGO_TARGET_DIR="$scratch/target-avx512" \
    cargo test -q --release -p bonsai-tree --test proptests
  RUSTFLAGS="-C target-feature=+avx512f,+avx512vl,+avx2,+fma" CARGO_TARGET_DIR="$scratch/target-avx512" \
    cargo test -q --release -p bonsai-verify --lib oracle::
  RUSTFLAGS="-C target-feature=+avx512f,+avx512vl,+avx2,+fma" CARGO_TARGET_DIR="$scratch/target-avx512" \
    cargo test -q --release -p bonsai-sim --test exchange_digests
fi

# The sliced CRC-64 loop is unrolled only at the release profile. Both CRC
# instantiations (sliced, and the carry-less-multiply fold where the CPU has
# PCLMULQDQ and SSE4.1) are compared there, and the envelope's bit-flip and
# truncation sweeps run over a frame long enough to take the fold, whole and
# with its header apart. The rest of bonsai-net runs on that code generation
# too: the collective (every transmission, retransmissions included, a header
# beside the sender's own buffer), the fault wire's copy-before-mangle, the
# proptests.
cargo test -q --release -p bonsai-util --lib hash
cargo test -q --release -p bonsai-net
# The pinned fault-log, flow-ledger and force digests, on the code
# generation the benchmark and the gates run.
cargo test -q --release -p bonsai-sim --test exchange_digests
# The Hilbert state table against Skilling's loops on 10^7 random 21-bit
# triples, both directions (tier-1 runs 10^5 and every cell of the lattices
# up to 64^3); about 3 s here.
cargo test -q --release -p bonsai-sfc --lib -- --ignored the_table_equals_skilling
# The fault enumerations, each schedule run alone with the named invariants
# held after every step, every step advancing the step count by one, and the
# run ending on the fault-free run's bits and step count: every single
# message fault at R = 4 (6 kinds x 4 message kinds x 4 epochs x 4 senders =
# 384), every dedicated LET of a run at R = 4 dropped through the retry
# budget, and every pair of message faults on two distinct flows of one
# epoch at R = 3. The recovering families checkpoint every other step, so a
# rollback lands on an older checkpoint and replays to the step it left.
# Tier-1 runs a stratified sample of each and the whole stall grid. The runs
# take the process pool, so the whole sets run at one lane and at three.
BONSAI_THREADS=1 cargo test -q --release -p bonsai-sim --test invariants -- --ignored
BONSAI_THREADS=3 cargo test -q --release -p bonsai-sim --test invariants -- --ignored
# The replay families of the robustness suite (a crash of every rank in
# every epoch, a LET lost through the budget, a rank silent through every
# replay) at three lanes too: tier-1 runs them on the default pool only.
BONSAI_THREADS=3 cargo test -q --release -p bonsai-sim --test robustness
# The exact-window tests at three lanes too: the trace, the flow ledger and
# the exchange windows evict one epoch inside every pool-driven epoch, and
# must hold exactly the last window after every step and every aborted
# epoch, each epoch's arrows drawn the same to its window's end. The LET frame tests
# too: receivers walk frames that share their senders' buffers, and the
# order in which those handles are dropped differs with the lane count.
BONSAI_THREADS=3 cargo test -q --release -p bonsai-sim --lib -- \
  cluster::tests::trace_history_is_a_bounded_window \
  cluster::tests::flow_history_is_a_bounded_window \
  cluster::tests::epochs_that_never_complete_still_evict \
  cluster::tests::arrows_drawn_at_the_end_of_their_window_are_those_drawn_first \
  cluster::tests::frame_buffers_come_back_unless_a_fault_holds_them \
  cluster::tests::let_frames

# The live heap of a thin run once its history window is full, counted by
# the test binary's own allocator: a second per-flow copy in the window (the
# arrows' points stored beside the ledger) breaks its bound. And the high
# water of one step: every LET of the epoch resident at once breaks that
# one. And the monitor's heap over a faulty run whose four incident windows
# overlap: a copy of each window per incident, arrows drawn, breaks that
# bound, where the one history holds each epoch once, undrawn. On the
# shipped code generation, and at three lanes, whose pool allocates too.
cargo test -q --release -p bonsai-sim --test heap
BONSAI_THREADS=3 cargo test -q --release -p bonsai-sim --test heap

echo "== benchmark package: build + unit tests + 2-step smoke test =="
# benchmark/ is its own workspace on path dependencies and may not be edited
# by a PR that claims a gain, so a signature drift in bonsai-net / bonsai-obs
# / bonsai-sim that would break its build has to fail here first.
(cd benchmark && cargo test -q --release --offline)

echo "== tier-1.5: message-flow tracing gate =="
CI_PROPTEST_CASES="${CI_PROPTEST_CASES:-32}" cargo test -q -p bonsai-net --test proptests
CI_PROPTEST_CASES="${CI_PROPTEST_CASES:-32}" cargo test -q -p bonsai-sim --test flow_proptests
# The boundary/LET wire decoder, fuzzed as deeply as the envelope.
CI_PROPTEST_CASES="${CI_PROPTEST_CASES:-32}" cargo test -q -p bonsai-domain --test proptests

echo "== tier-1.5: accuracy conformance suite =="
# A modest case count keeps the proptest layer fast on PRs; scheduled
# runs can export CI_PROPTEST_CASES=256 for deeper coverage.
CI_PROPTEST_CASES="${CI_PROPTEST_CASES:-32}" cargo test -q -p bonsai-tree --test proptests

echo "== race stress: thread-sweep conformance and pool protocol under load =="
# ThreadSanitizer needs nightly + rust-src (-Zbuild-std); offline images
# without it fall back to a stress loop — the conformance sweep repeated
# with the test harness's own threads left on, giving scheduling noise
# many chances to surface a race as a bit difference. Either way the pool's
# own tests (lost wake-up, early return, early panic) repeat their
# schedules PAR_STRESS_ITERS times.
stress_iters="${PAR_STRESS_ITERS:-200}"
if cargo +nightly -V >/dev/null 2>&1 \
    && rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src (installed)'; then
  RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
    -q -p bonsai-tree --test parallel_determinism
  PAR_STRESS_ITERS="$stress_iters" RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
    -q --release -p bonsai-par --lib
else
  PAR_STRESS_ITERS="$stress_iters" cargo test -q -p bonsai-tree --test parallel_determinism
  PAR_STRESS_ITERS="$stress_iters" cargo test -q --release -p bonsai-par --lib
fi

echo "== artifact gates: nine rows of one table, walked at two thread counts =="
# `gates` (crates/bonsai-bench/src/gates.rs) produces each BENCH_<kind>.json
# once at its pinned configuration, requires its verdicts to hold and its
# bytes to equal the checked-in file (written by another process on another
# day: the cross-run determinism check; a ranked diff is printed otherwise),
# checks every HTML report it rendered, writes out/, and then requires the
# row's sabotaged variant -- produced in memory only -- to be caught by the
# verdict or on the measurement the table names. An asymmetric lane count is
# the nastiest case for chunk-boundary bugs: neither the nine artifacts nor
# any file under out/ may move by a byte under it.
cargo run -q --release -p bonsai-bench --bin gates
cp -r out "$scratch/out-default-threads"
BONSAI_THREADS=3 cargo run -q --release -p bonsai-bench --bin gates
diff -r "$scratch/out-default-threads" out

echo "== the paper's evaluation: every row but the fig3 science run =="
# `paper` (crates/bonsai-bench/src/paper.rs) regenerates each figure, table
# and ablation at its pinned size and exits 1 when a claim falls outside its
# band. The tier-1 test runs the same rows at the dev profile; this is the
# shipped code generation. It rewrites the tracked out/fig2_decomposition.ppm;
# the production and chaos rows checkpoint into temp directories they remove.
cargo run -q --release -p bonsai-bench --bin paper

echo "== the two programs that print a Table II column =="
# The CLI's distributed run and the cluster demo end on
# StepBreakdown::format_column; each must exit 0.
cargo run -q --release --bin bonsai -- run cluster --n 4000 --ranks 4 --steps 2
cargo run -q --release --example cluster_demo -- 4 4000

echo "== the hybrid engine, and a malformed CLI flag =="
# black_hole is the one program that runs HybridSimulation (the tree code
# plus the direct core around black holes, §VII). A flag value that does not
# parse must exit 2, not quietly run the default.
cargo run -q --release --example black_hole
status=0
cargo run -q --release --bin bonsai -- run plummer --n 6o000 || status=$?
test "$status" -eq 2

echo "== the CLI's snapshot path: write a snapshot, then resume from it =="
# `bonsai resume` reads a user-supplied file through the strict particle
# codec the exchange and the checkpoint shards share; both must exit 0.
# A resumed run carries on from the snapshot's time: two steps of dt = 0.01
# wrote t = 0.02, and a snapshot written two steps after the resume, t = 0.04.
cargo run -q --release --bin bonsai -- run plummer --n 2000 --steps 2 --snapshot "$scratch/p.bin"
resumed=$(cargo run -q --release --bin bonsai -- resume "$scratch/p.bin" --steps 2 --snapshot "$scratch/p2.bin")
echo "$resumed"
grep -q "start  t =   0.0200" <<<"$resumed"
resumed=$(cargo run -q --release --bin bonsai -- resume "$scratch/p2.bin" --steps 1)
echo "$resumed"
grep -q "start  t =   0.0400" <<<"$resumed"

echo "== the other examples, at small sizes =="
# An item whose only caller is an example is kept for that example, so every
# example must still run. galaxy_merger is the one caller of density_center.
cargo run -q --release --example quickstart
cargo run -q --release --example accuracy_sweep -- 4000
cargo run -q --release --example milky_way -- 4000 20
cargo run -q --release --example galaxy_merger -- 1000 20

# The gate runner wrote nothing to the tree. A kernel change that is *meant*
# to move force bits is re-blessed with `gates --bless` (DESIGN.md 6f). Nor
# did the benchmark stanza above: `benchmark/run.sh` and that `cargo test`
# build without `--locked`, so a dependency line dropped anywhere in crates/
# would rewrite benchmark/Cargo.lock as a side effect, and this is what
# notices. The paper runner must leave every tracked file under out/
# byte-identical: its one tracked render, and the fig3 files it did not run.
git diff --exit-code -- 'BENCH_*.json' benchmark/ out/

echo "CI line green"
