#!/usr/bin/env bash
# Tier-1 verification: everything a change must keep green.
#
#   scripts/tier1.sh
#
# Builds the workspace in release mode, runs the full test suite (workspace
# pass plus a per-crate pass, so each crate's tests also run against its own
# feature/dependency resolution), holds the tree to a warning-free clippy
# bar (all targets, -D warnings), and requires the rendered API docs of every
# first-party crate to build without rustdoc warnings.
set -euo pipefail
cd "$(dirname "$0")/.."

# First-party packages (vendored stand-ins under vendor/ are exempt from the
# doc and per-crate bars; they are exercised transitively).
AIM_PACKAGES=(
  aim-types aim-isa aim-mem aim-predictor aim-lsq aim-core aim-backend
  aim-pipeline aim-workloads aim-bench aim-serve aim-cli aim-integration
  aim-examples
)

# aim-bench, aim-mem, aim-serve, aim-isa, aim-backend, aim-lsq and
# aim-pipeline are held to rustfmt (the rest of the tree is not yet).
echo "== tier1: cargo fmt --check -p aim-bench =="
cargo fmt --check -p aim-bench
echo "== tier1: cargo fmt --check -p aim-mem =="
cargo fmt --check -p aim-mem
echo "== tier1: cargo fmt --check -p aim-serve =="
cargo fmt --check -p aim-serve
echo "== tier1: cargo fmt --check -p aim-isa -p aim-backend -p aim-lsq =="
cargo fmt --check -p aim-isa -p aim-backend -p aim-lsq
echo "== tier1: cargo fmt --check -p aim-pipeline =="
cargo fmt --check -p aim-pipeline

echo "== tier1: cargo build --release =="
cargo build --release

echo "== tier1: cargo test -q =="
cargo test -q

for pkg in "${AIM_PACKAGES[@]}"; do
  echo "== tier1: cargo test -q -p ${pkg} =="
  cargo test -q -p "${pkg}"
done

# The backend-conformance suite is the contract every MemBackend implements;
# run it by name so a test-filtering regression cannot silently drop it.
echo "== tier1: cargo test -p aim-backend --test conformance =="
cargo test -q -p aim-backend --test conformance

echo "== tier1: EXPERIMENTS.md carries the backend gap-closed table =="
grep -q '| backend | int gap closed | fp gap closed |' EXPERIMENTS.md

# The PCAX table is an acceptance gate: the run asserts pcax stays inside
# the no-spec..oracle bracket and must print its acceptance line. Its
# --csv export comes from the report's own rows, so the CSV must hold a
# header plus one line per kernel (one per JSON row), and the header must
# be the key order of the report's first row line.
echo "== tier1: aim-bench pcax acceptance (tiny scale) and one column list for JSON and CSV =="
PCAX_JSON="$(mktemp)"
PCAX_CSV="$(mktemp)"
AIM_PCAX_JSON="$PCAX_JSON" AIM_SWEEP_JSON="$(mktemp)" \
  cargo run --release -q -p aim-bench -- pcax --scale tiny --csv "$PCAX_CSV" \
  | grep -q 'acceptance: pcax inside the bracket'
PCAX_ROWS="$(grep -c '^    {' "$PCAX_JSON")"
if [ "$PCAX_ROWS" -eq 0 ] || [ "$(wc -l < "$PCAX_CSV")" -ne $((PCAX_ROWS + 1)) ]; then
  echo "aim-bench pcax --csv: expected a header plus $PCAX_ROWS kernel lines" >&2
  exit 1
fi
PCAX_KEYS="$(grep -m1 '^    {' "$PCAX_JSON" | grep -o '"[a-z_]*":' | tr -d '":' | paste -sd, -)"
if [ "$(head -n1 "$PCAX_CSV")" != "$PCAX_KEYS" ]; then
  echo "aim-bench pcax --csv header differs from the report's row keys ($PCAX_KEYS)" >&2
  exit 1
fi

# The driver's command line: an unknown flag (here the `--flag=value`
# spelling the parser does not take) is one `error:` line and exit 2,
# never a silent full-scale run.
echo "== tier1: aim-bench rejects unknown flags =="
set +e
BAD_FLAG_OUT="$(cargo run --release -q -p aim-bench -- fig5 --scale=tiny 2>&1)"
BAD_FLAG_STATUS=$?
set -e
if [ "$BAD_FLAG_STATUS" -ne 2 ] || ! grep -q "^error: unknown flag \`--scale=tiny\`" <<<"$BAD_FLAG_OUT"; then
  echo "aim-bench fig5 --scale=tiny: expected one error line and exit 2, got $BAD_FLAG_STATUS" >&2
  exit 1
fi

# The geometry sweeps are acceptance gates too: each run asserts every
# swept point stays inside the no-spec..oracle bracket and must locate and
# print a knee. The tiny grid is the reduced 2x2 CI matrix.
echo "== tier1: aim-bench pcax-sweep acceptance (tiny scale, tiny grid) =="
PCAX_SWEEP_OUT="$(AIM_PCAX_SWEEP_JSON="$(mktemp)" AIM_SWEEP_JSON="$(mktemp)" \
  cargo run --release -q -p aim-bench -- pcax-sweep --scale tiny --grid tiny)"
grep -q 'knee: ' <<<"$PCAX_SWEEP_OUT"
grep -q 'acceptance: every swept pcax geometry inside the no-spec..oracle bracket, knee located' \
  <<<"$PCAX_SWEEP_OUT"

echo "== tier1: aim-bench filter-sweep acceptance (tiny scale, tiny grid) =="
FILTER_SWEEP_OUT="$(AIM_FILTER_SWEEP_JSON="$(mktemp)" AIM_SWEEP_JSON="$(mktemp)" \
  cargo run --release -q -p aim-bench -- filter-sweep --scale tiny --grid tiny)"
grep -q 'knee: ' <<<"$FILTER_SWEEP_OUT"
grep -q 'acceptance: every swept filter geometry inside the no-spec..oracle bracket, knee located' \
  <<<"$FILTER_SWEEP_OUT"

# The host-throughput gate: --check replays the matrix single-threaded and
# fails if the architectural-stats fingerprint diverges (a silent behavior
# change hiding behind a host-perf win), then replays it again as 1-core
# MultiMachines — the multi-core refactor's N=1 bit-identity contract —
# and the run must print both acceptance lines. Both replays compare the
# run only with itself, so the accepted fingerprint is also pinned: a
# change that alters any statistic must update it here and bump
# aim_bench::CODE_VERSION in the same commit.
echo "== tier1: aim-bench hostperf differential gate (tiny scale) =="
HOSTPERF_OUT="$(AIM_HOSTPERF_JSON="$(mktemp)" AIM_SWEEP_JSON="$(mktemp)" \
  cargo run --release -q -p aim-bench -- hostperf --scale tiny --check)"
grep -q 'hostperf: multi-core N=1 fingerprint matches single-core' <<<"$HOSTPERF_OUT"
grep -q 'hostperf: ACCEPT fingerprint=0xa49ad3104b1c2d9a ' <<<"$HOSTPERF_OUT"
# The same run pins the kilo-entry window: the six huge-far800 backends
# (4096-entry ROB behind the 800-cycle far tier) over every tiny kernel.
grep -q 'hostperf: huge-far800 fingerprint=0xa32569539e722595 ' <<<"$HOSTPERF_OUT"

# The memory-model gate: every litmus outcome the multi-core machine
# produces must be allowed by the operational reference model, on every
# backend. Tier-1 runs a shallow schedule sweep (the committed
# BENCH_litmus.json is the full 200-schedule run); the integration test
# suite already ran the deeper AIM_LITMUS_SCHEDULES default during
# `cargo test -p aim-pipeline`.
echo "== tier1: aim-bench litmus containment gate (8 schedules) =="
AIM_LITMUS_JSON="$(mktemp)" \
  cargo run --release -q -p aim-bench -- litmus --schedules 8 \
  | grep -q 'litmus: ACCEPT'

# The serve gate: replay the hostperf request matrix against an empty
# result cache twice over framed connections. The cold round must simulate
# every cell; the warm round must be answered entirely from the
# content-addressed cache, byte-identical and with zero simulations, or
# the run exits non-zero without printing its acceptance line.
echo "== tier1: aim-sim serve replay gate (tiny scale, 2 rounds) =="
AIM_SERVE_JSON="$(mktemp)" \
  cargo run --release -q -p aim-cli --bin aim-sim -- \
    serve --replay --scale tiny --rounds 2 --cache "$(mktemp -d)" \
  | grep -q 'serve: cache-consistent'

# The far-memory gate: the kilo-entry-window × far-latency matrix asserts
# every backend inside the no-spec..oracle bracket before printing its
# acceptance line. (Warm-replay byte identity of the far-tier and sampled
# cells is the serve crate's own test: crates/serve/tests/cache.rs.)
echo "== tier1: aim-bench farmem acceptance (tiny scale) =="
AIM_FARMEM_JSON="$(mktemp)" AIM_SWEEP_JSON="$(mktemp)" \
  cargo run --release -q -p aim-bench -- farmem --scale tiny \
  | grep -q 'acceptance: every backend inside the no-spec..oracle bracket'

# The sampled-simulation gate: every kernel runs full detail and under the
# tuned tiled policy (sampling is default-off, so the full cells are the
# unsampled machine the hostperf --check gate above pins), and every
# sampled run must complete its schedule. Convergence tolerance and the
# >=10x wall-clock floor are huge-scale claims, asserted when the artifact
# runs at --scale huge (the committed BENCH_sampled.json is that run).
echo "== tier1: aim-bench sampled differential gate (tiny scale) =="
AIM_SAMPLED_JSON="$(mktemp)" AIM_SWEEP_JSON="$(mktemp)" \
  cargo run --release -q -p aim-bench -- sampled --scale tiny \
  | grep -q 'acceptance: worst sampled-vs-detail error'

# Cross-process warm reuse: a server process simulates one far-tier cell
# (huge machine, far tier) submitted through the CLI, and a fresh server
# process over the same cache directory must answer it from cache.
echo "== tier1: cross-process warm reuse via aim-sim submit =="
FARMEM_CACHE="$(mktemp -d)"
for want in '\[sim\]' '\[cache\]'; do
  FARMEM_SOCK="$(mktemp -u)"
  cargo run --release -q -p aim-cli --bin aim-sim -- \
    serve --socket "$FARMEM_SOCK" --cache "$FARMEM_CACHE" &
  FARMEM_SERVE_PID=$!
  for _ in $(seq 1 100); do [ -S "$FARMEM_SOCK" ] && break; sleep 0.1; done
  cargo run --release -q -p aim-cli --bin aim-sim -- \
    submit swim --socket "$FARMEM_SOCK" --machine huge --backend sfc-mdt \
    --far 800x64x8 --scale tiny \
    | grep -q "$want"
  cargo run --release -q -p aim-cli --bin aim-sim -- \
    submit --shutdown --socket "$FARMEM_SOCK" >/dev/null
  wait "$FARMEM_SERVE_PID"
done

# The CLI-surface gate: every command names a machine through the one
# ConfigSpec surface. `run` must take the huge class's own 256x256 LSQ
# default, and a value the PCAX backend would assert on must be refused
# at decode with an `error:` line, not reach the simulator and panic.
echo "== tier1: aim-sim config surface =="
cargo run --release -q -p aim-cli --bin aim-sim -- \
  run swim --machine huge --backend lsq --scale tiny \
  | grep -q 'under lsq256x256'
if PCAX_ACT_OUT="$(cargo run --release -q -p aim-cli --bin aim-sim -- \
    run gzip --backend pcax --pcax-act 9 --scale tiny 2>&1)"; then
  echo "aim-sim accepted --pcax-act 9" >&2
  exit 1
fi
grep -q '^error: ' <<<"$PCAX_ACT_OUT"
if grep -q 'panicked' <<<"$PCAX_ACT_OUT"; then
  echo "aim-sim panicked on --pcax-act 9" >&2
  exit 1
fi

# The repository benchmark (perfbench/) is a workspace of its own that
# path-depends on the crates' public APIs: build it and run its smoke tests
# (two tiny kernels per workload), so an API change that breaks it fails
# here rather than at benchmark time.
echo "== tier1: perfbench smoke tests =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Benches must keep compiling even though tier-1 does not time them.
echo "== tier1: cargo bench --no-run =="
cargo bench --no-run

echo "== tier1: cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "== tier1: cargo doc --no-deps (rustdoc warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
  "${AIM_PACKAGES[@]/#/--package=}"

echo "== tier1: OK =="
