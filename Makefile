# Convenience entry points; everything below is a thin wrapper over dune.

.PHONY: all check build test longrun oracle-test telemetry-test engine-test gc-test parallel-test check-hist net-test graph-test trace-smoke bench bench-smoke bench-latency bench-engine bench-engine-smoke bench-engine-par bench-engine-par-smoke bench-policy bench-policy-smoke bench-check bench-check-smoke bench-net bench-net-smoke bench-graph bench-graph-smoke clean

all: build

# The default gate: full build, full test suite, the trace round trips,
# and the smoke sweeps that double as end-to-end differential checks
# (oracle backends, sharded engine and its executors, deletability
# index, history checker).
check: build test longrun trace-smoke bench-smoke bench-engine-smoke parallel-test bench-engine-par-smoke bench-policy-smoke check-hist bench-check-smoke net-test bench-net-smoke graph-test bench-graph-smoke

build:
	dune build

test:
	dune runtest

# The long-run gates.  The residency gate (also part of `dune runtest`)
# drives every graph scheduler, the database facade and the Inline
# engine over long seeded runs and fails at the first gauge sample
# (graph, store, footprint table, WAL) above its residency-derived
# bound.  The timing gate runs 10^5 txns in the shapes of perfbench's
# sched-churn and engine-tpcc, and the wal-pin shape (one transaction
# pinned at the log head while 4x10^4 short ones are journaled, removed
# and truncated behind it), and fails if the last decile's median
# ns/step exceeds 1.2x the first decile's.
longrun:
	dune build @longrun
	dune exec test/test_longrun.exe -- timing

# Just the cycle-oracle differential + metamorphic suites — the tight
# loop when hacking on a backend.
oracle-test:
	dune build @oracle

# Just the tracing/metrics suite — the tight loop when hacking on the
# telemetry layer or the scheduler instrumentation.
telemetry-test:
	dune build @telemetry

# Just the sharded-engine suite (differential vs the single-node
# scheduler, partitioner/admission/shard units) — the tight loop when
# hacking on lib/engine.
engine-test:
	dune build @engine

# Just the deletability-index suite (holds_fast/index metamorphic
# properties, policy x scheduler x backend equivalence, the engine
# differential under the checked index) — the tight loop when hacking
# on the GC fast path.
gc-test:
	dune build @gc

# Just the executor suite (the seeded-replay differential matrix vs the
# single-node scheduler and the Inline executor, executor independence,
# the coordinator mutation checks, and the locked-sink thread-safety
# regression) — the tight loop when hacking on the domain-per-shard
# executors.
parallel-test:
	dune build @parallel

# Just the history-checker suite (scheduler-accepted differential,
# mutation harness, streaming-vs-closure QCheck property, pinned
# corpus/check/ runs) — the tight loop when hacking on lib/check.
check-hist:
	dune build @check-hist

# Just the serving-layer suite (wire-protocol round trips and typed
# rejections in both dialects, the loopback differential against the
# in-process engine under each executor, mid-frame disconnect and shard-failure
# propagation, workload-mix distribution checks) — the tight loop when
# hacking on lib/net.
net-test:
	dune build @net

# Just the compact-substrate suite (bitset/row-vs-model differential,
# arena aliasing and copy properties, slot-space structure units) —
# the tight loop when hacking on lib/graph's storage layer.
graph-test:
	dune build @graph

# End-to-end trace round trips: run with tracing on and summarize the
# JSONL.  The conflict-model and engine traces are also re-fed to the
# deletion auditor; the multiwrite and predeclared summaries must carry
# their c3-exact and c4 deletion rows (the shared GC round's emitter).
trace-smoke:
	dune exec bin/dct.exe -- simulate --model conflict --policy c2 -n 80 \
	  --oracle checked --trace /tmp/dct-trace-smoke.jsonl --metrics
	dune exec bin/dct.exe -- trace /tmp/dct-trace-smoke.jsonl --audit
	dune exec bin/dct.exe -- simulate --model multiwrite -n 80 \
	  --trace /tmp/dct-trace-smoke-mw.jsonl --metrics
	dune exec bin/dct.exe -- trace --strict /tmp/dct-trace-smoke-mw.jsonl \
	  > /tmp/dct-trace-smoke-mw.txt
	grep -q '^c3-exact ' /tmp/dct-trace-smoke-mw.txt
	dune exec bin/dct.exe -- simulate --model predeclared -n 80 \
	  --trace /tmp/dct-trace-smoke-pd.jsonl --metrics
	dune exec bin/dct.exe -- trace --strict /tmp/dct-trace-smoke-pd.jsonl \
	  > /tmp/dct-trace-smoke-pd.txt
	grep -q '^c4 ' /tmp/dct-trace-smoke-pd.txt
	dune exec bin/dct.exe -- serve --shards 2 --replay 3 -n 80 \
	  --trace /tmp/dct-trace-smoke-serve.jsonl --metrics
	dune exec bin/dct.exe -- trace /tmp/dct-trace-smoke-serve.jsonl --audit

# The full oracle sweep (writes BENCH_oracle.json; minutes).
bench:
	dune exec bench/main.exe -- oracle

# CI gate: tiny sweep, exits non-zero if the backends disagree or the
# emitted BENCH_oracle.smoke.json fails validation.  Every sweep writes
# BENCH_<sweep>.json, or BENCH_<sweep>.smoke.json for its smoke run,
# through bench/bench_io.ml, so no run overwrites another's file.
bench-smoke:
	dune exec bench/main.exe -- oracle-smoke

# Tiny sweep with per-query latency histograms recorded next to the
# wall-clock numbers in BENCH_oracle_latency.smoke.json.
bench-latency:
	dune exec bench/main.exe -- oracle-latency

# The engine sweep: shards x batch x contention through the sharded
# engine (writes BENCH_engine.json; every configuration also passes the
# differential against the single-node scheduler, so this doubles as an
# end-to-end exactness gate).
bench-engine:
	dune exec bench/main.exe -- engine

# CI gate: two-config engine sweep, exits non-zero on a differential
# failure or a malformed BENCH_engine.smoke.json.
bench-engine-smoke:
	dune exec bench/main.exe -- engine-smoke

# The domains axis alone: each parallel row (one applier domain per
# shard) next to its Inline baseline, with speedup_vs_single_domain
# and host_cores recorded in BENCH_engine_par.json.
bench-engine-par:
	dune exec bench/main.exe -- engine-par

# CI gate: one inline/domains pair; the parallel row's differential
# runs the full check (single-node scheduler + Inline executor's shard
# state + trace byte-equality); writes BENCH_engine_par.smoke.json.
bench-engine-par-smoke:
	dune exec bench/main.exe -- engine-par-smoke

# The policy/GC sweep: n x contention x policy with and without the
# deletability index (writes BENCH_policy.json with per-GC-call latency
# histograms; enforces the >= 5x incremental speedup on the n >= 1000
# pinned-resident rows and zero checked-mode divergences).
bench-policy:
	dune exec bench/main.exe -- policy

# CI gate: two-config policy sweep, exits non-zero on a divergence or a
# malformed BENCH_policy.smoke.json.
bench-policy-smoke:
	dune exec bench/main.exe -- policy-smoke

# The history-checker sweep: streaming throughput by level and trace
# size, including a 10^6-event end-to-end JSONL row (writes
# BENCH_check.json; enforces the >= 100k events/s atomicity bar and
# flat residency gauges).
bench-check:
	dune exec bench/main.exe -- check

# CI gate: tiny check sweep, exits non-zero on a residency growth, a
# checked-mode divergence, or a malformed BENCH_check.smoke.json.
bench-check-smoke:
	dune exec bench/main.exe -- check-smoke

# The network sweep: workload mix x shards x policy x gc-index served
# over a loopback socket by the threaded server and driven closed-loop
# (writes BENCH_net.json with throughput and p50/p90/p99 latency rows
# for every workload class, pinned-deletability scenario included).
bench-net:
	dune exec bench/main.exe -- net

# CI gate: every workload class once with tiny traffic; exits non-zero
# on a missing class row or a malformed BENCH_net.smoke.json.
bench-net-smoke:
	dune exec bench/main.exe -- net-smoke

# The graph-substrate churn sweep: resident windows up to 10^6 nodes
# under an id stream cycling far past them (writes BENCH_graph.json
# with ops/s, bytes/resident-node and per-op latency histograms;
# enforces that the byte gauge stays flat while ids churn).
bench-graph:
	dune exec bench/main.exe -- graph

# CI gate: small windows, same shape, single-core-sized; exits
# non-zero on a residency leak or a malformed BENCH_graph.smoke.json.
bench-graph-smoke:
	dune exec bench/main.exe -- graph-smoke

clean:
	dune clean
