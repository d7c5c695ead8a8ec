#!/usr/bin/env bash
# Full CI line, runnable locally: tier-1, both tier-1.5 gates, artefact
# byte-determinism, and the scaling regression gate. Mirrors
# .github/workflows/ci.yml so a green local run predicts a green CI run.
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

echo "== shipped code generation: walk tests on the release profile =="
# The dev profile is opt-level 1 and does not vectorise; the lane kernels
# and their AVX2 instantiation only exist at the release profile, so the
# lane-conformance and thread-sweep suites run there as well.
cargo test -q --release -p bonsai-tree --lib
cargo test -q --release -p bonsai-tree --test parallel_determinism
# Once more with AVX2+FMA switched on for the whole build: there the baseline
# instantiation inlines `vfmadd` instead of calling libm's `fma`, and the
# conformance, accuracy and digest tests must see the same bits — force bits
# do not depend on build flags either. (Needs a CPU that has both.)
if grep -qw avx2 /proc/cpuinfo && grep -qw fma /proc/cpuinfo; then
  RUSTFLAGS="-C target-feature=+avx2,+fma" CARGO_TARGET_DIR="$scratch/target-avx2-fma" \
    cargo test -q --release -p bonsai-tree --lib -- kernels:: walk::
fi

# The sliced CRC-64 loop is unrolled only at the release profile.
cargo test -q --release -p bonsai-util --lib hash

echo "== benchmark package: build + unit tests + 2-step smoke test =="
# benchmark/ is its own workspace on path dependencies and may not be edited
# by a PR that claims a gain, so a signature drift in bonsai-net / bonsai-obs
# / bonsai-sim that would break its build has to fail here first.
(cd benchmark && cargo test -q --release --offline)

echo "== tier-1.5: message-flow tracing gate =="
CI_PROPTEST_CASES="${CI_PROPTEST_CASES:-32}" cargo test -q -p bonsai-net --test proptests
CI_PROPTEST_CASES="${CI_PROPTEST_CASES:-32}" cargo test -q -p bonsai-sim --test flow_proptests

echo "== tier-1.5: accuracy conformance suite =="
# A modest case count keeps the proptest layer fast on PRs; scheduled
# runs can export CI_PROPTEST_CASES=256 for deeper coverage.
CI_PROPTEST_CASES="${CI_PROPTEST_CASES:-32}" cargo test -q -p bonsai-tree --test proptests

echo "== determinism: obs_trace double run =="
cargo run -q --release -p bonsai-bench --bin obs_trace >/dev/null
cp out/trace_step.json "$scratch/trace_step.1.json"
cp BENCH_step.json "$scratch/BENCH_step.1.json"
cargo run -q --release -p bonsai-bench --bin obs_trace >/dev/null
cmp out/trace_step.json "$scratch/trace_step.1.json"
cmp BENCH_step.json "$scratch/BENCH_step.1.json"

echo "== determinism: obs_scaling double run =="
cargo run -q --release -p bonsai-bench --bin obs_scaling >/dev/null
cp BENCH_scaling.json "$scratch/BENCH_scaling.1.json"
cargo run -q --release -p bonsai-bench --bin obs_scaling >/dev/null
cmp BENCH_scaling.json "$scratch/BENCH_scaling.1.json"

echo "== regression gate: obs_scaling --check =="
cargo run -q --release -p bonsai-bench --bin obs_scaling -- --check baselines/scaling.json

echo "== determinism: verify_accuracy double run =="
cargo run -q --release -p bonsai-bench --bin verify_accuracy >/dev/null
cp BENCH_accuracy.json "$scratch/BENCH_accuracy.1.json"
cargo run -q --release -p bonsai-bench --bin verify_accuracy >/dev/null
cmp BENCH_accuracy.json "$scratch/BENCH_accuracy.1.json"

echo "== regression gate: verify_accuracy --check =="
cargo run -q --release -p bonsai-bench --bin verify_accuracy -- --check baselines/accuracy.json

echo "== gate self-test: loosened MAC must fail the accuracy gate =="
# Inflating the walk's θ while the bands stay nominal simulates an
# accuracy regression; the gate is only trustworthy if this exits 1.
if cargo run -q --release -p bonsai-bench --bin verify_accuracy -- \
    --inflate-theta 1.5 --check baselines/accuracy.json >/dev/null 2>&1; then
  echo "accuracy gate failed to catch an inflated θ" >&2
  exit 1
fi
# Restore the honest artefact clobbered by the inflated run.
cargo run -q --release -p bonsai-bench --bin verify_accuracy >/dev/null
cmp BENCH_accuracy.json "$scratch/BENCH_accuracy.1.json"

echo "== long-run gate: obs_longrun double run + alert lifecycle =="
cargo run -q --release -p bonsai-bench --bin obs_longrun >/dev/null
cp BENCH_longrun.json "$scratch/BENCH_longrun.1.json"
cp out/longrun_report.html "$scratch/longrun_report.1.html"
cargo run -q --release -p bonsai-bench --bin obs_longrun >/dev/null
cmp BENCH_longrun.json "$scratch/BENCH_longrun.1.json"
cmp out/longrun_report.html "$scratch/longrun_report.1.html"
# The seeded fault storm must open AND close at least one recovery alert.
grep -q '"rule": "recovery-storm", .*"kind": "open"' BENCH_longrun.json
grep -q '"rule": "recovery-storm", .*"kind": "close"' BENCH_longrun.json

echo "== membership gate: obs_membership double run + churn invariants =="
cargo run -q --release -p bonsai-bench --bin obs_membership >/dev/null
cp BENCH_membership.json "$scratch/BENCH_membership.1.json"
cargo run -q --release -p bonsai-bench --bin obs_membership >/dev/null
cmp BENCH_membership.json "$scratch/BENCH_membership.1.json"
grep -q '"passed": true' BENCH_membership.json

echo "== gate self-test: dropped migrants must fail the membership gate =="
# The sabotage hook drains migrants but never ships them; the gate is only
# trustworthy if that conservation violation makes the run exit 1.
if cargo run -q --release -p bonsai-bench --bin obs_membership -- \
    --drop-migrants >/dev/null 2>&1; then
  echo "membership gate failed to catch dropped migrants" >&2
  exit 1
fi
# Restore the honest artefact clobbered by the sabotaged run.
cargo run -q --release -p bonsai-bench --bin obs_membership >/dev/null
cmp BENCH_membership.json "$scratch/BENCH_membership.1.json"

echo "== profile gate: obs_profile double run + roofline baseline diff =="
cargo run -q --release -p bonsai-bench --bin obs_profile >/dev/null
cp BENCH_profile.json "$scratch/BENCH_profile.1.json"
cp out/profile_report.html "$scratch/profile_report.1.html"
cargo run -q --release -p bonsai-bench --bin obs_profile >/dev/null
cmp BENCH_profile.json "$scratch/BENCH_profile.1.json"
cmp out/profile_report.html "$scratch/profile_report.1.html"
cargo run -q --release -p bonsai-bench --bin obs_diff -- --against baselines/profile.json

echo "== gate self-test: a sandbagged kernel must fail the profile diff =="
# Slowing the gravity kernels 1.5x moves the roofline points and the
# gravity residuals; the diff gate is only trustworthy if it exits 1.
cargo run -q --release -p bonsai-bench --bin obs_profile -- --sandbag-kernel >/dev/null
if cargo run -q --release -p bonsai-bench --bin obs_diff -- \
    --against baselines/profile.json >/dev/null 2>&1; then
  echo "profile diff gate failed to catch a sandbagged kernel" >&2
  exit 1
fi
# Restore the honest artefact clobbered by the sandbagged run.
cargo run -q --release -p bonsai-bench --bin obs_profile >/dev/null
cmp BENCH_profile.json "$scratch/BENCH_profile.1.json"

echo "== flows gate: obs_flows double run + flow-ledger baseline diff =="
cargo run -q --release -p bonsai-bench --bin obs_flows >/dev/null
cp BENCH_flows.json "$scratch/BENCH_flows.1.json"
cp out/flows_report.html "$scratch/flows_report.1.html"
cargo run -q --release -p bonsai-bench --bin obs_flows >/dev/null
cmp BENCH_flows.json "$scratch/BENCH_flows.1.json"
cmp out/flows_report.html "$scratch/flows_report.1.html"
cargo run -q --release -p bonsai-bench --bin obs_diff -- --against baselines/flows.json
# The faulty ladder must conserve flows and attribute its waits.
grep -q '"holds": true' BENCH_flows.json

echo "== gate self-test: masked retransmits must fail the flows diff =="
# Rewriting every flow to a clean first-attempt delivery simulates a
# doctored ledger; the diff gate is only trustworthy if it exits 1.
cargo run -q --release -p bonsai-bench --bin obs_flows -- --mask-retransmits >/dev/null
if cargo run -q --release -p bonsai-bench --bin obs_diff -- \
    --against baselines/flows.json >/dev/null 2>&1; then
  echo "flows diff gate failed to catch masked retransmits" >&2
  exit 1
fi
# Restore the honest artefact clobbered by the masked run.
cargo run -q --release -p bonsai-bench --bin obs_flows >/dev/null
cmp BENCH_flows.json "$scratch/BENCH_flows.1.json"

echo "== stream gate: obs_stream double run + dashboard determinism =="
cargo run -q --release -p bonsai-bench --bin obs_stream >/dev/null
cp BENCH_stream.json "$scratch/BENCH_stream.1.json"
cp out/stream_report.html "$scratch/stream_report.1.html"
cp out/stream_snapshot_0080.html "$scratch/stream_snapshot_0080.1.html"
cargo run -q --release -p bonsai-bench --bin obs_stream >/dev/null
cmp BENCH_stream.json "$scratch/BENCH_stream.1.json"
cmp out/stream_report.html "$scratch/stream_report.1.html"
cmp out/stream_snapshot_0080.html "$scratch/stream_snapshot_0080.1.html"
# The slow subscriber must lose only droppable frames, with exact books,
# and the run's self-metered overhead must sit inside the 3% budget.
grep -q '"lossless_ok": true' BENCH_stream.json
grep -q '"accounting_ok": true' BENCH_stream.json
grep -q '"overhead_ok": true' BENCH_stream.json

echo "== gate self-test: a blocking bus must fail the stream gate =="
# --block-on-full makes the publisher stall on a full ring; the priced
# stalls must blow the overhead budget, and the gate must exit 1.
if cargo run -q --release -p bonsai-bench --bin obs_stream -- \
    --block-on-full >/dev/null 2>&1; then
  echo "stream gate failed to catch a blocking bus" >&2
  exit 1
fi
# Restore the honest artefact clobbered by the sabotaged run.
cargo run -q --release -p bonsai-bench --bin obs_stream >/dev/null
cmp BENCH_stream.json "$scratch/BENCH_stream.1.json"

echo "== parallel gate: obs_parallel double run + thread-sweep determinism =="
cargo run -q --release -p bonsai-bench --bin obs_parallel >/dev/null
cp BENCH_parallel.json "$scratch/BENCH_parallel.1.json"
cargo run -q --release -p bonsai-bench --bin obs_parallel >/dev/null
cmp BENCH_parallel.json "$scratch/BENCH_parallel.1.json"
# Every lane count hashed to the same force bits, every pool fully staffed.
# (Wall clock is printed, not gated: that is benchmark/'s par.speedup_t2.)
grep -q '"deterministic": true' BENCH_parallel.json
grep -q '"workers_ok": true' BENCH_parallel.json

echo "== gate self-test: pinned pools must fail the parallel gate =="
# --pin-one-thread builds every pool with one lane regardless of the
# requested width; the worker-census gate is only trustworthy if it exits 1.
if cargo run -q --release -p bonsai-bench --bin obs_parallel -- \
    --pin-one-thread >/dev/null 2>&1; then
  echo "parallel gate failed to catch pinned pools" >&2
  exit 1
fi
# Restore the honest artefact clobbered by the sabotaged run.
cargo run -q --release -p bonsai-bench --bin obs_parallel >/dev/null
cmp BENCH_parallel.json "$scratch/BENCH_parallel.1.json"

echo "== thread invariance: step artefacts identical under BONSAI_THREADS=3 =="
# The global pool picks up BONSAI_THREADS; an asymmetric lane count is the
# nastiest case for chunk-boundary bugs, and the artefacts must not move
# by a byte.
BONSAI_THREADS=3 cargo run -q --release -p bonsai-bench --bin obs_trace >/dev/null
cmp BENCH_step.json "$scratch/BENCH_step.1.json"
cmp out/trace_step.json "$scratch/trace_step.1.json"

echo "== race stress: thread-sweep conformance under load =="
# ThreadSanitizer needs nightly + rust-src (-Zbuild-std); offline images
# without it fall back to a stress loop — the conformance sweep repeated
# with the test harness's own threads left on, giving scheduling noise
# many chances to surface a race as a bit difference.
if cargo +nightly -V >/dev/null 2>&1 \
    && rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src (installed)'; then
  RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
    -q -p bonsai-par -p bonsai-tree --test parallel_determinism
else
  PAR_STRESS_ITERS="${PAR_STRESS_ITERS:-200}" \
    cargo test -q -p bonsai-tree --test parallel_determinism
fi

echo "== baseline sweep: obs_diff against every checked-in baseline =="
# Every BENCH_*.json kind has a baseline; a silent drift in any artifact
# fails here with a ranked attribution instead of a bare cmp.
for baseline in baselines/*.json; do
  cargo run -q --release -p bonsai-bench --bin obs_diff -- --against "$baseline"
done

echo "== artefact bytes: every regenerated BENCH_*.json and baseline is the checked-in one =="
# A change to one bit of a force moves these; it must fail here. Nothing
# below this line regenerates an artefact, so what every gate above left
# behind is what is pinned. A kernel change that is *meant* to move force
# bits is re-blessed by the recipe in DESIGN.md §6f (old-baseline accuracy
# check first, one regeneration, baselines copied from the artefacts), which
# leaves each baseline a byte copy of its artefact.
git diff --exit-code -- 'BENCH_*.json' baselines/
for baseline in baselines/*.json; do
  cmp "$baseline" "BENCH_$(basename "$baseline")"
done

echo "== report smoke: every emitted HTML report is self-contained =="
cargo run -q --release -p bonsai-bench --bin check_reports

echo "== bench summary: one-line rollup of every artifact =="
cargo run -q --release -p bonsai-bench --bin bench_summary

echo "CI line green"
