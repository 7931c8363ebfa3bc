#!/usr/bin/env bash
# Lint gate: formatting + clippy with warnings denied, then the test
# suite. Degrades gracefully when rustfmt/clippy components are not
# installed (e.g. a minimal offline toolchain): the missing step is
# skipped with a notice instead of failing the gate.
#
# Always runs rustdoc with warnings denied (missing docs on a public
# item fail the gate) and these CLI smokes: a trace round-trip (generate
# a trace, pack it to the columnar binary format — with --jobs 1 and
# --jobs 3 too, which must write the same bytes, and generate it packed
# straight to --out, which must write them too — cat it back to
# JSON-lines and diff against the original; re-pack the packed file to a
# new file and in place, each byte-identical to it; pack with the
# largest --block-len, which must neither reserve it nor change what cat
# gives back; and cat and re-pack the packed file from a pipe, which must
# give the same bytes as from the file), a characterize determinism
# check (the same workload characterized with --jobs 1 and --jobs 4 must
# print identical reports), an engine diff (replaying the checked-in
# fixture trace with --engine recurrence and with --engine flit must
# stay byte-identical to the output captured when replay began printing
# the report's network line, whose numbers predate it: the NetEngine
# refactor, steady-stream skipping and exact quantiles; the
# recurrence replay read on --jobs 1 and --jobs 3, and of a packed copy
# from a file and from a pipe, must print the same), a network-section
# diff (characterize of a shared-memory app on the default network and
# with --engine flit --topology torus --sim-jobs 2, and characterize
# --trace of the fixture replayed with each engine, must stay
# byte-identical to the reports captured before the pipeline stopped
# keeping a per-message record log: the network behaviour section is
# folded from the deliveries as they happen; and with each engine,
# replay's causal line must be the network line of characterize --trace
# on the same file), a fit fixture diff
# (characterize --no-replay of the same fixture must stay byte-identical
# to the report captured before the allocation-free secant solver, so a
# change to the fitted numbers shows up, and print the same read on
# --jobs 1 and --jobs 3, and from the packed copy through a pipe and
# from its file), a streaming smoke
# (a packed trace with a deliberately small block budget characterized
# out-of-core with --stream at --block-jobs 1 and 3, and at 3 from a
# pipe, which is read whole first, must print byte-identically to the
# in-memory --no-replay pass over the same events), a sharded-simulator
# smoke (the same trace replayed with --engine flit at --sim-jobs 1 and
# --sim-jobs 4 must print byte-identically: the wavefront shards are
# cycle-identical to the serial event loop), a sharded-machine smoke
# (is acquired with --sim-jobs 1 and --sim-jobs 4, and maxflow and
# cholesky with --sim-jobs 1 and --sim-jobs 3, must produce
# byte-identical packed traces and characterize reports: one shard
# injects its sends at tick edges and several at window edges, yet the
# execution-driven simulator is event-identical to serial), a
# torus smoke (a workload run and characterized end-to-end with
# --engine flit --topology torus, where the sharded flit router at
# --sim-jobs 1 and --sim-jobs 4 must print byte-identical reports: band
# sharding stays deterministic under wraparound routes and escape VCs),
# a scale smoke (halo on 4096 ranks, the most MAX_NODES allows, run
# --packed: its stdout and the packed trace's cksum must match
# tests/fixtures/halo4096.txt, captured from the thread-per-rank sp2
# runtime; ~0.1 s since sp2 polls its ranks as coroutines, ~2 s before),
# a wide-report smoke (the first 2,000 events of that halo trace
# characterized with --no-replay at --jobs 2, and with --stream at
# --block-jobs 2 from a copy packed in 97-event blocks, must each cksum to
# tests/fixtures/halo4096_cut.txt: a report over 4,096 sources, whose
# destination rows the stream folds per pair, stays what it was),
# a synthesis smoke (the suite table at --jobs 1 and --jobs 3, and the
# cksum of a generated trace, must match tests/fixtures/suite4.txt and
# tests/fixtures/generate_nbody4.txt: the synth-ratio column and the
# generated events are what the per-source inter-arrival fits feed),
# a serve smoke (a server on an ephemeral port, the fixture replayed
# through serve-feed — once from a file, writing its report with --out
# over an existing file, once streamed over stdin with --trace - — and
# each final report diffed against offline characterize --no-replay: the
# wire must not change a byte), and a no-panic smoke
# (bad processor counts, an oversized trace header, a trace line whose
# `src` and `bytes` overflow their fields, a trace whose last line
# repeats an id packed with trace pack — which must also leave no --out
# file — and a packed trace cut short or with a flipped byte in block 0
# read out-of-core with --stream, or whole by characterize --no-replay
# and replay, must exit 1 with an `error:` line, never a panic).
#
# Every library's manifest must name only crates its sources use:
# `cargo check --workspace --lib` runs with `-D unused-crate-dependencies`
# in its own target directory (target/udeps, so the flags do not
# invalidate the main build cache). commchar-bench is left out because
# its binaries use crates its library does not.
#
# The benchmark package (benchmark/, a workspace of its own) is gated
# too: fmt, clippy with warnings denied, and its tests in release mode.
#
# Flags:
#   --bench-smoke   additionally run the flit throughput, sharded
#                   simulator, trace store, characterization,
#                   closed-loop engine and characterization-server
#                   benches in quick mode; they cross-check their fast
#                   paths against references for identity and rewrite
#                   BENCH_flit.json / BENCH_shard.json / BENCH_trace.json
#                   / BENCH_fit.json / BENCH_engine.json /
#                   BENCH_serve.json so future PRs have perf baselines
#                   to compare against; then checks that every
#                   BENCH_*.json begins with the shared header (bench,
#                   mode, host_cores, git_rev) and holds a floors list,
#                   so no bench drifts back to a private schema.
set -euo pipefail
cd "$(dirname "$0")/.."

bench_smoke=0
for arg in "$@"; do
    case "$arg" in
        --bench-smoke) bench_smoke=1 ;;
        *) echo "check.sh: unknown flag '$arg'" >&2; exit 2 ;;
    esac
done

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
else
    echo "==> skipping fmt (rustfmt not installed)"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> skipping clippy (component not installed)"
fi

echo "==> unused manifest dependencies (-D unused-crate-dependencies)"
CARGO_TARGET_DIR=target/udeps RUSTFLAGS="-D unused-crate-dependencies" \
    cargo check --workspace --lib --exclude commchar-bench -q

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> benchmark package (fmt / clippy -D warnings / tests)"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --manifest-path benchmark/Cargo.toml -- --check
fi
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
fi
cargo test --release --manifest-path benchmark/Cargo.toml -q

echo "==> trace round-trip smoke (pack / cat / diff)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run --release -q -- generate nbody --procs 4 --scale tiny --out "$tmpdir/t.jsonl"
cargo run --release -q -- trace pack "$tmpdir/t.jsonl" --out "$tmpdir/t.cct"
cargo run --release -q -- trace pack "$tmpdir/t.jsonl" --jobs 1 --out "$tmpdir/t.j1.cct"
cargo run --release -q -- trace pack "$tmpdir/t.jsonl" --jobs 3 --out "$tmpdir/t.j3.cct"
cmp "$tmpdir/t.j1.cct" "$tmpdir/t.j3.cct"
cmp "$tmpdir/t.cct" "$tmpdir/t.j1.cct"
cargo run --release -q -- generate nbody --procs 4 --scale tiny --packed --out "$tmpdir/t.gen.cct"
cmp "$tmpdir/t.cct" "$tmpdir/t.gen.cct"
cargo run --release -q -- trace cat "$tmpdir/t.cct" --out "$tmpdir/t.roundtrip.jsonl"
diff "$tmpdir/t.jsonl" "$tmpdir/t.roundtrip.jsonl"
cargo run --release -q -- trace pack "$tmpdir/t.cct" --out "$tmpdir/t.repack.cct"
cmp "$tmpdir/t.cct" "$tmpdir/t.repack.cct"
cp "$tmpdir/t.cct" "$tmpdir/t.inplace.cct"
cargo run --release -q -- trace pack "$tmpdir/t.inplace.cct" --out "$tmpdir/t.inplace.cct"
cmp "$tmpdir/t.cct" "$tmpdir/t.inplace.cct"
cargo run --release -q -- trace pack "$tmpdir/t.jsonl" --block-len 18446744073709551615 \
    --out "$tmpdir/t.huge.cct"
cargo run --release -q -- trace cat "$tmpdir/t.huge.cct" | diff "$tmpdir/t.jsonl" -
cat "$tmpdir/t.cct" | cargo run --release -q -- trace cat /dev/stdin | diff "$tmpdir/t.jsonl" -
cat "$tmpdir/t.cct" | cargo run --release -q -- trace pack /dev/stdin --out "$tmpdir/t.piped.cct"
cmp "$tmpdir/t.cct" "$tmpdir/t.piped.cct"
cargo run --release -q -- trace stat "$tmpdir/t.cct" | sed 's/^/    /'

echo "==> characterize determinism smoke (--jobs 4 vs --jobs 1 diff)"
cargo run --release -q -- characterize cholesky --procs 8 --scale tiny --jobs 1 >"$tmpdir/sig.j1.txt"
cargo run --release -q -- characterize cholesky --procs 8 --scale tiny --jobs 4 >"$tmpdir/sig.j4.txt"
diff "$tmpdir/sig.j1.txt" "$tmpdir/sig.j4.txt"

echo "==> streaming smoke (--stream vs --no-replay diff, small blocks)"
cargo run --release -q -- trace pack "$tmpdir/t.jsonl" --block-len 7 --out "$tmpdir/t.small.cct"
cargo run --release -q -- characterize --trace "$tmpdir/t.small.cct" --no-replay >"$tmpdir/sig.batch.txt"
cargo run --release -q -- characterize --trace "$tmpdir/t.small.cct" --stream --block-jobs 1 >"$tmpdir/sig.stream.j1.txt"
diff "$tmpdir/sig.batch.txt" "$tmpdir/sig.stream.j1.txt"
cargo run --release -q -- characterize --trace "$tmpdir/t.small.cct" --stream --block-jobs 3 >"$tmpdir/sig.stream.txt"
diff "$tmpdir/sig.batch.txt" "$tmpdir/sig.stream.txt"
cat "$tmpdir/t.small.cct" | cargo run --release -q -- characterize --trace /dev/stdin --stream --block-jobs 3 >"$tmpdir/sig.stream.piped.txt"
diff "$tmpdir/sig.batch.txt" "$tmpdir/sig.stream.piped.txt"

echo "==> engine diff smoke (--engine recurrence and flit vs checked-in fixtures)"
cargo run --release -q -- replay --trace tests/fixtures/engine_diff.trace.jsonl --engine recurrence >"$tmpdir/replay.rec.txt"
diff tests/fixtures/engine_diff.replay.txt "$tmpdir/replay.rec.txt"
# The fixture spans several 64 KiB chunks: --jobs 1 and 3 read it alike,
# and a packed copy reads the same from its file and from a pipe.
cargo run --release -q -- trace pack tests/fixtures/engine_diff.trace.jsonl --out "$tmpdir/fixture.cct"
cargo run --release -q -- replay --trace tests/fixtures/engine_diff.trace.jsonl --jobs 1 >"$tmpdir/replay.j1.txt"
cargo run --release -q -- replay --trace tests/fixtures/engine_diff.trace.jsonl --jobs 3 >"$tmpdir/replay.j3.txt"
diff "$tmpdir/replay.j1.txt" "$tmpdir/replay.j3.txt"
diff tests/fixtures/engine_diff.replay.txt "$tmpdir/replay.j1.txt"
cargo run --release -q -- replay --trace "$tmpdir/fixture.cct" >"$tmpdir/replay.cct.txt"
cat "$tmpdir/fixture.cct" | cargo run --release -q -- replay --trace /dev/stdin >"$tmpdir/replay.piped.txt"
diff "$tmpdir/replay.cct.txt" "$tmpdir/replay.piped.txt"
diff tests/fixtures/engine_diff.replay.txt "$tmpdir/replay.cct.txt"
cargo run --release -q -- replay --trace tests/fixtures/engine_diff.trace.jsonl --engine flit >"$tmpdir/replay.flit.txt"
diff tests/fixtures/engine_diff.replay.flit.txt "$tmpdir/replay.flit.txt"
sed 's/^/    /' "$tmpdir/replay.flit.txt"

echo "==> network section diff (characterize with a replay or an execution loop vs checked-in reports)"
cargo run --release -q -- characterize cholesky --procs 8 --scale tiny >"$tmpdir/net.chol.txt"
diff tests/fixtures/cholesky8.characterize.txt "$tmpdir/net.chol.txt"
cargo run --release -q -- characterize cholesky --procs 8 --scale tiny --engine flit --topology torus \
    --sim-jobs 2 >"$tmpdir/net.chol.flit.txt"
diff tests/fixtures/cholesky8.characterize.flit.torus.txt "$tmpdir/net.chol.flit.txt"
cargo run --release -q -- characterize --trace tests/fixtures/engine_diff.trace.jsonl --engine recurrence >"$tmpdir/net.trace.txt"
diff tests/fixtures/engine_diff.characterize.replay.txt "$tmpdir/net.trace.txt"
cargo run --release -q -- characterize --trace tests/fixtures/engine_diff.trace.jsonl --engine flit >"$tmpdir/net.trace.flit.txt"
diff tests/fixtures/engine_diff.characterize.replay.flit.txt "$tmpdir/net.trace.flit.txt"
# replay and characterize --trace print one network line for one replay.
same_network_line() {
    local causal network
    causal="$(sed -n 's/^causal: //p' "$1")"
    network="$(sed -n '/^network behaviour$/{n;s/^  //p;}' "$2")"
    if [ -z "$causal" ] || [ "$causal" != "$network" ]; then
        echo "check.sh: replay's causal line '$causal' is not the report's '$network'" >&2
        exit 1
    fi
}
same_network_line "$tmpdir/replay.rec.txt" "$tmpdir/net.trace.txt"
same_network_line "$tmpdir/replay.flit.txt" "$tmpdir/net.trace.flit.txt"

echo "==> fit fixture diff (characterize --no-replay vs checked-in report)"
cargo run --release -q -- characterize --trace tests/fixtures/engine_diff.trace.jsonl --no-replay >"$tmpdir/fixture.sig.txt"
diff tests/fixtures/engine_diff.characterize.txt "$tmpdir/fixture.sig.txt"
cargo run --release -q -- characterize --trace tests/fixtures/engine_diff.trace.jsonl --no-replay --jobs 1 >"$tmpdir/fixture.sig.j1.txt"
cargo run --release -q -- characterize --trace tests/fixtures/engine_diff.trace.jsonl --no-replay --jobs 3 >"$tmpdir/fixture.sig.j3.txt"
diff "$tmpdir/fixture.sig.j1.txt" "$tmpdir/fixture.sig.j3.txt"
diff tests/fixtures/engine_diff.characterize.txt "$tmpdir/fixture.sig.j1.txt"
cargo run --release -q -- characterize --trace "$tmpdir/fixture.cct" --no-replay >"$tmpdir/fixture.sig.cct.txt"
cat "$tmpdir/fixture.cct" | cargo run --release -q -- characterize --trace /dev/stdin --no-replay >"$tmpdir/fixture.sig.piped.txt"
diff "$tmpdir/fixture.sig.cct.txt" "$tmpdir/fixture.sig.piped.txt"
diff tests/fixtures/engine_diff.characterize.txt "$tmpdir/fixture.sig.cct.txt"

echo "==> sharded simulator smoke (--sim-jobs 4 vs --sim-jobs 1 diff)"
cargo run --release -q -- replay --trace tests/fixtures/engine_diff.trace.jsonl --engine flit --sim-jobs 1 >"$tmpdir/replay.s1.txt"
cargo run --release -q -- replay --trace tests/fixtures/engine_diff.trace.jsonl --engine flit --sim-jobs 4 >"$tmpdir/replay.s4.txt"
diff "$tmpdir/replay.s1.txt" "$tmpdir/replay.s4.txt"

echo "==> sharded machine smoke (sm apps --sim-jobs N vs --sim-jobs 1 diff)"
# One shard injects sends at tick edges, several at window edges: is at
# 4 shards, and maxflow (locks, deferred home requests) and cholesky at 3.
for spec in "is 4" "maxflow 3" "cholesky 3"; do
    set -- $spec
    app=$1 jobs=$2
    for n in 1 "$jobs"; do
        cargo run --release -q -- run "$app" --procs 8 --scale tiny --sim-jobs "$n" --packed \
            --out "$tmpdir/$app.s$n.cct" >"$tmpdir/$app.s$n.txt"
        cargo run --release -q -- characterize "$app" --procs 8 --scale tiny --sim-jobs "$n" \
            >"$tmpdir/$app.sig.s$n.txt"
    done
    diff "$tmpdir/$app.s1.txt" "$tmpdir/$app.s$jobs.txt"
    cmp "$tmpdir/$app.s1.cct" "$tmpdir/$app.s$jobs.cct"
    diff "$tmpdir/$app.sig.s1.txt" "$tmpdir/$app.sig.s$jobs.txt"
done

echo "==> torus smoke (--topology torus, --sim-jobs 4 vs --sim-jobs 1 diff)"
cargo run --release -q -- run allreduce --procs 8 --scale tiny --engine flit --topology torus --routing adaptive | sed 's/^/    /'
cargo run --release -q -- characterize is --procs 8 --scale tiny --engine flit --topology torus --sim-jobs 1 >"$tmpdir/torus.sig.s1.txt"
cargo run --release -q -- characterize is --procs 8 --scale tiny --engine flit --topology torus --sim-jobs 4 >"$tmpdir/torus.sig.s4.txt"
diff "$tmpdir/torus.sig.s1.txt" "$tmpdir/torus.sig.s4.txt"

echo "==> scale smoke (halo on 4096 ranks vs checked-in fixture)"
{
    cargo run --release -q -- run halo --procs 4096 --scale tiny --packed --out "$tmpdir/h.cct"
    cksum <"$tmpdir/h.cct"
} >"$tmpdir/halo4096.txt"
diff tests/fixtures/halo4096.txt "$tmpdir/halo4096.txt"

echo "==> wide-report smoke (first 2,000 halo4096 events vs checked-in cksum)"
cargo run --release -q -- trace cat "$tmpdir/h.cct" --out "$tmpdir/h.jsonl"
head -n 2001 "$tmpdir/h.jsonl" >"$tmpdir/h.cut.jsonl"
cargo run --release -q -- characterize --trace "$tmpdir/h.cut.jsonl" --no-replay --jobs 2 \
    | cksum >"$tmpdir/h.cut.batch.txt"
diff tests/fixtures/halo4096_cut.txt "$tmpdir/h.cut.batch.txt"
cargo run --release -q -- trace pack "$tmpdir/h.cut.jsonl" --block-len 97 --out "$tmpdir/h.cut.cct"
cargo run --release -q -- characterize --trace "$tmpdir/h.cut.cct" --stream --block-jobs 2 \
    | cksum >"$tmpdir/h.cut.stream.txt"
diff tests/fixtures/halo4096_cut.txt "$tmpdir/h.cut.stream.txt"

echo "==> synthesis smoke (suite table and generated trace vs checked-in fixtures)"
cargo run --release -q -- suite --procs 4 --scale tiny --jobs 1 2>/dev/null >"$tmpdir/suite.j1.txt"
diff tests/fixtures/suite4.txt "$tmpdir/suite.j1.txt"
cargo run --release -q -- suite --procs 4 --scale tiny --jobs 3 2>/dev/null >"$tmpdir/suite.j3.txt"
diff tests/fixtures/suite4.txt "$tmpdir/suite.j3.txt"
cargo run --release -q -- generate nbody --procs 4 --scale tiny | cksum >"$tmpdir/generate.txt"
diff tests/fixtures/generate_nbody4.txt "$tmpdir/generate.txt"

echo "==> serve smoke (serve-feed final report vs offline characterize diff)"
cargo run --release -q -- serve --addr 127.0.0.1:0 >"$tmpdir/serve.addr" 2>"$tmpdir/serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$tmpdir/serve.addr" 2>/dev/null || true)"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "check.sh: serve did not report its address" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
# The first session's report goes to --out over an existing file, which
# is replaced whole.
echo stale >"$tmpdir/sig.served.txt"
cargo run --release -q -- serve-feed --trace "$tmpdir/t.jsonl" --addr "$addr" \
    --block-len 11 --poll-every 2 --out "$tmpdir/sig.served.txt" >/dev/null 2>&1
# Second session: the same events streamed block-by-block over stdin
# (--trace -), the live-producer path, then a protocol shutdown.
cargo run --release -q -- serve-feed --trace - --addr "$addr" \
    --poll-every 2 --shutdown <"$tmpdir/t.small.cct" >"$tmpdir/sig.piped.txt" 2>/dev/null
wait "$serve_pid"
cargo run --release -q -- characterize --trace "$tmpdir/t.jsonl" --no-replay >"$tmpdir/sig.offline.txt"
diff "$tmpdir/sig.served.txt" "$tmpdir/sig.offline.txt"
diff "$tmpdir/sig.piped.txt" "$tmpdir/sig.offline.txt"

echo "==> no-panic smoke (bad input exits 1 with an error: line)"
expect_error() {
    local status=0
    cargo run --release -q -- "$@" >/dev/null 2>"$tmpdir/err.txt" || status=$?
    if [ "$status" -ne 1 ] || ! grep -q '^error:' "$tmpdir/err.txt" \
        || grep -q 'panicked' "$tmpdir/err.txt"; then
        echo "check.sh: 'commchar $*' exited $status:" >&2
        cat "$tmpdir/err.txt" >&2
        exit 1
    fi
    echo "    $(head -n 1 "$tmpdir/err.txt")"
}
printf '{"nodes":4097}\n' >"$tmpdir/wide.jsonl"
printf '{"nodes":4}\n{"id":0,"t":1,"src":65537,"dst":0,"bytes":4294967304,"kind":"data"}\n' \
    >"$tmpdir/wrapped.jsonl"
# A trace whose last line repeats the id of the line before it.
{ cat "$tmpdir/t.jsonl"; tail -n 1 "$tmpdir/t.jsonl"; } >"$tmpdir/dup.jsonl"
# A packed trace cut inside its first block, and one with a byte of block
# 0's payload flipped (the 10-byte header and the 8-byte frame header
# come first, so byte 20 is payload).
head -c 40 "$tmpdir/t.cct" >"$tmpdir/cut.cct"
cp "$tmpdir/t.cct" "$tmpdir/flip.cct"
byte="$(od -An -tu1 -j 20 -N 1 "$tmpdir/t.cct" | tr -d ' ')"
printf "\\$(printf '%03o' $((byte ^ 0xff)))" \
    | dd of="$tmpdir/flip.cct" bs=1 seek=20 count=1 conv=notrunc 2>/dev/null
expect_error run 1d-fft --procs 3 --scale tiny
expect_error run is --procs 0
expect_error suite --procs 3 --scale tiny
expect_error characterize --trace "$tmpdir/wide.jsonl" --no-replay
expect_error trace pack "$tmpdir/wrapped.jsonl" --out "$tmpdir/wrapped.cct"
expect_error trace pack "$tmpdir/dup.jsonl" --out "$tmpdir/dup.cct"
if [ -e "$tmpdir/dup.cct" ]; then
    echo "check.sh: a failed trace pack wrote its --out file" >&2
    exit 1
fi
expect_error characterize --trace "$tmpdir/cut.cct" --stream
expect_error characterize --trace "$tmpdir/flip.cct" --stream
expect_error characterize --trace "$tmpdir/cut.cct" --no-replay
expect_error replay --trace "$tmpdir/flip.cct"

if [ "$bench_smoke" -eq 1 ]; then
    echo "==> flit throughput bench (quick smoke)"
    cargo run --release -p commchar-bench --bin bench_flit -- --quick
    echo "==> sharded simulator bench (quick smoke)"
    cargo run --release -p commchar-bench --bin bench_shard -- --quick
    echo "==> trace store bench (quick smoke)"
    cargo run --release -p commchar-bench --bin bench_trace -- --quick
    echo "==> characterization fit bench (quick smoke)"
    cargo run --release -p commchar-bench --bin bench_fit -- --quick
    echo "==> closed-loop engine bench (quick smoke)"
    cargo run --release -p commchar-bench --bin bench_engine -- --quick
    echo "==> characterization server bench (quick smoke)"
    cargo run --release -p commchar-bench --bin bench_serve -- --quick
    echo "==> BENCH schema (shared header and a floors list in every file)"
    for f in BENCH_*.json; do
        keys="$(sed -n 's/^  "\([a-z_]*\)": .*/\1/p' "$f" | head -n 4 | tr '\n' ' ')"
        if [ "$keys" != "bench mode host_cores git_rev " ] || ! grep -q '^  "floors": \[' "$f"; then
            echo "check.sh: $f lacks the shared BENCH header or its floors list" >&2
            exit 1
        fi
    done
fi

echo "check.sh: all gates passed"
