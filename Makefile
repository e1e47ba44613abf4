.PHONY: all check test lint doc clean no-oracles bench-e2e bench-cdg bench-routing bench-analysis bench-break break-smoke analyze-examples kernel-equivalence bench-service smoke-service coverage zoo soak soak-smoke churn-smoke

all:
	dune build

# The tier-1 gate: everything compiles (dev and release profiles),
# every test suite passes (runtest includes test_parallel, the 2-domain
# determinism smoke of the parallel routing pipeline, and test_spf, the
# kernel-equivalence property suite), the routing certifier signs off
# on the example topologies, the SSSP kernels agree bit-for-bit on
# the quick equivalence fixtures, the two cycle-break engines agree
# on a small torus (break-smoke), the topology-zoo conformance battery
# certifies every corpus file and generator sample, a quick churn
# soak (>= 200 seeded events) survives with every epoch recertified, a
# layer-tight torus converges on every churn event under DFSSSP and
# under LASH's Pearce-Kelly placement on the degraded fabric
# (churn-smoke), and no oracle has leaked back into the shipped code
# (no-oracles).
check:
	dune build && dune build --profile release && dune runtest && $(MAKE) no-oracles && $(MAKE) lint && $(MAKE) analyze-examples && $(MAKE) kernel-equivalence && $(MAKE) break-smoke && $(MAKE) smoke-service && $(MAKE) zoo && $(MAKE) soak-smoke && $(MAKE) churn-smoke

# Oracles and reference implementations live in the test-only `oracles`
# library (test/oracles/), linked by the test suites and benches alone.
# Fails if a shipped dune file names that library, or if code under lib/
# or bin/ (comments stripped, nested ones included) mentions Dijkstra or
# Cdg_ref, the two oracles that used to ship.
no-oracles:
	@if grep -lw oracles lib/*/dune bin/dune; then \
	  echo "no-oracles: the dune files above link the test-only oracles library"; exit 1; fi
	@find lib bin \( -name '*.ml' -o -name '*.mli' \) | sort | xargs perl -0777 -n test/oracles/shipped_names.pl
	@echo "no-oracles: OK"

# Topology-zoo conformance battery (doc/topology_ingestion.md): every
# file under examples/zoo plus the seeded jellyfish/xpander samples,
# through the full registry, certifier, existence lower bounds and
# kernel/engine parity. Exit 0 iff zero conformance failures.
zoo:
	dune exec bin/fabric_tool.exe -- zoo

# Quick churn soak, part of `check`: three fabrics, >= 200 applied
# seeded events total, every epoch swap recertified by the trusted
# checker. Failing runs dump a reproduction artifact (seed + trace)
# under _build/soak/ and print its path. The second run holds a torus to
# three layers, where Algorithm 2 can run out of layers and the online
# placement must fit instead.
soak-smoke:
	dune exec bin/fabric_tool.exe -- soak torus:4x4 torus:3x3x3 xpander:4,5:11 --events 90 --seed 7
	dune exec bin/fabric_tool.exe -- soak torus:5x5 --events 90 --seed 7 --max-layers 3

# Churn on a torus where Algorithm 2 needs all 8 layers, part of `check`:
# 30 link events on each of three seeds, most of which run it out of
# layers, so the online placement must fit them. Then 30 events under
# LASH with the default switch removals and drains: every event's tables
# are placed by the Pearce-Kelly order on a degraded fabric. `manage`
# exits 1 unless every event ends in a verified swap.
churn-smoke:
	@set -e; for seed in 1 2 3; do \
	  out=$$(dune exec bin/fabric_tool.exe -- manage torus:8x8:4 --switch-removals 0 --events 30 --seed $$seed) || \
	    { printf '%s\n' "$$out"; echo "churn-smoke: torus:8x8:4 seed $$seed did not converge"; exit 1; }; \
	  echo "churn-smoke: torus:8x8:4 seed $$seed converged"; \
	done
	@out=$$(dune exec bin/fabric_tool.exe -- manage torus:8x8:4 --algorithm lash --events 30 --seed 1) || \
	  { printf '%s\n' "$$out"; echo "churn-smoke: torus:8x8:4 lash seed 1 did not converge"; exit 1; }; \
	echo "churn-smoke: torus:8x8:4 lash seed 1 converged"

# Long-haul churn soak (not part of `check`): larger fabrics, more
# events, switch removals and drains included.
soak:
	dune exec --profile release bin/fabric_tool.exe -- soak torus:5x5 torus:3x3x3 dragonfly:4,2,2 jellyfish:18,8,5:3 xpander:4,6:11 --events 400 --seed 11

test: check

# The routing certifier on the example topologies: lint the DFSSSP
# tables and validate their deadlock-freedom certificates (exit 0 iff
# every target is certified and lint-clean).
lint:
	dune exec bin/fabric_tool.exe -- analyze --minimal ring:8 torus:4x4 tree:4,2 dragonfly:4,2,2

# The full static-analysis sweep (doc/static_analysis.md): route and
# analyze one example of every topology family the spec grammar knows,
# with the existence check and the layer lower bound enabled, then the
# two online (path-at-a-time) placements, LASH and dfsssp-online, on
# tori large enough that rejected paths leave accepted edges behind.
# Exit 0 iff every fabric is feasible and every table certifies with
# zero analyzer errors.
analyze-examples:
	dune exec bin/fabric_tool.exe -- analyze --existence --min-layers \
	  ring:8 torus:4x4 hypercube:4 tree:4,2 xgft:2,4/1,2:16 kautz:2,3 \
	  dragonfly:4,2,2 hyperx:3x3 random:8,10,16,14:7
	dune exec bin/fabric_tool.exe -- analyze --existence --min-layers --algorithm lash \
	  torus:8x8:4 torus:12x12 torus:16x16
	dune exec bin/fabric_tool.exe -- analyze --existence --min-layers --algorithm dfsssp-online \
	  torus:8x8:4 torus:12x12 torus:16x16

# The end-to-end benchmark declared in BENCHMARK.json (e2ebench/README.md):
# fabric bring-up on a fat tree and a jellyfish, and a live daemon under
# link churn and route queries. Each workload runs for BENCHMARK.json's
# run_seconds (25) in release mode, seed 1, untraced, and its final JSON
# line lands in bench_results/e2e_<workload>.json; fails if a run fails or
# reports incorrect outputs. One-off seeds, lengths and traced runs go
# through `sh e2ebench/run.sh` directly.
bench-e2e:
	@set -e; mkdir -p bench_results; \
	for w in bringup-fattree bringup-jellyfish serve-churn; do \
	  out=$$(sh e2ebench/run.sh --workload $$w --seed 1 --seconds 25 --trace 0); \
	  printf '%s\n' "$$out" | tail -n 1 > bench_results/e2e_$$w.json; \
	  grep -q '"correct":true' bench_results/e2e_$$w.json || \
	    { echo "bench-e2e: $$w reported incorrect outputs"; exit 1; }; \
	  echo "bench-e2e: $$w -> bench_results/e2e_$$w.json"; \
	done

# Route-store / CSR CDG microbenchmark (DESIGN.md §10). Writes
# bench_results/route_store.json; fails if the >= 2x build+cycle-breaking
# speedup or the zero-allocation hot-loop target is missed.
bench-cdg:
	dune exec --profile release bench/cdg_bench.exe

# Static-analyzer cost benchmark (doc/static_analysis.md). Writes
# bench_results/analysis.json; fails if Existence.analyze exceeds 10%
# of the dfsssp route-build time on a 4096-endpoint XGFT.
bench-analysis:
	dune exec --profile release bench/analysis_bench.exe

# Cycle-break engine benchmark (DESIGN.md §17): SCC condensation vs the
# one-cycle-at-a-time DFS oracle, sequential and across domains, with
# per-stage condense/evict/rebuild splits. Writes
# bench_results/cycle_break.json; fails if SCC is under 2x DFS on the
# torus workloads, a layer count drifts past oracle+1, or parallel
# planning falls under 0.9x sequential.
bench-break:
	dune exec --profile release bench/break_bench.exe

# Quick engine-parity mode of the same binary (seconds, no timing
# gates): both engines must agree on layers within +1 on a small torus.
# Part of `check`.
break-smoke:
	dune exec --profile release bench/break_bench.exe -- --quick

# Domain-parallel routing pipeline benchmark (DESIGN.md §12, §15).
# Writes bench_results/routing_parallel.json with sequential vs parallel
# SSSP + cycle-breaking times, per-stage (snapshot/compute) splits, and
# a per-kernel comparison (heap vs bucket vs incremental). Enforced
# gates: parallel SSSP >= 1.0x sequential on every topology, bucket
# >= 1.3x heap on the bucket-gated rows, and the default (Auto) kernel
# within 5% of the fastest. The legacy >= 2x pipeline speedup gate is
# enforced only when >= 4 hardware domains are available, and recorded
# as skipped in the JSON otherwise.
bench-routing:
	dune exec --profile release bench/routing_bench.exe

# Quick kernel-equivalence mode of the same binary (no timing, < 1s):
# routes two small fixtures under every kernel and fails unless tables
# and final weights match the heap oracle bit-for-bit. Part of `check`.
kernel-equivalence:
	dune exec --profile release bench/routing_bench.exe -- --equivalence

# Controller-service throughput/latency gate (DESIGN.md §14). Starts a
# real server in-process and hammers it with 16 client threads under
# topology churn; writes bench_results/service_latency.json. The first
# run records its qps as the baseline; later runs fail below 40% of it.
bench-service:
	dune exec --profile release bench/service_bench.exe

# Daemon smoke test: start `fabric_tool serve` as a real separate
# process, query it over the socket with `fabric_tool client`, apply an
# event, and shut it down cleanly. Guards the ends the in-process soak
# test cannot see: CLI wiring, signal/exit paths, socket unlinking.
smoke-service:
	@set -e; \
	sock=$$(mktemp -u /tmp/fabsvc_smoke_XXXXXX.sock); \
	dune exec bin/fabric_tool.exe -- serve torus:4x4 --socket $$sock & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -f $$sock' EXIT; \
	for i in $$(seq 1 100); do [ -S $$sock ] && break; sleep 0.05; done; \
	[ -S $$sock ] || { echo "smoke-service: daemon never bound $$sock"; exit 1; }; \
	dune exec bin/fabric_tool.exe -- client --socket $$sock ping; \
	dune exec bin/fabric_tool.exe -- client --socket $$sock route 16 31; \
	dune exec bin/fabric_tool.exe -- client --socket $$sock event down 3; \
	dune exec bin/fabric_tool.exe -- client --socket $$sock route 16 31; \
	dune exec bin/fabric_tool.exe -- client --socket $$sock shutdown; \
	wait $$pid; \
	[ ! -e $$sock ] || { echo "smoke-service: socket not unlinked at shutdown"; exit 1; }; \
	trap - EXIT; \
	echo "smoke-service: OK"

# Line-coverage report (doc/observability.md). Every library carries the
# (instrumentation (backend bisect_ppx)) stanza, which is inert unless
# dune is invoked with --instrument-with; the target is skipped cleanly
# when bisect_ppx is not installed (it is not baked into the CI image).
# Enforces a >= 80% floor on lib/obs.
coverage:
	@if ocamlfind query bisect_ppx >/dev/null 2>&1; then \
	  rm -rf _coverage && mkdir -p _coverage; \
	  BISECT_FILE=$$(pwd)/_coverage/bisect dune runtest --force --instrument-with bisect_ppx && \
	  bisect-ppx-report summary --coverage-path _coverage --per-file > _coverage/summary.txt && \
	  cat _coverage/summary.txt && \
	  obs=$$(awk '/lib\/obs\// {gsub(/%/,"",$$1); sum+=$$1; n+=1} END {if (n>0) printf "%.1f", sum/n; else print "0"}' _coverage/summary.txt); \
	  echo "lib/obs mean line coverage: $$obs% (floor: 80%)"; \
	  awk -v v="$$obs" 'BEGIN { exit (v+0 >= 80.0) ? 0 : 1 }' || \
	    { echo "coverage: lib/obs below the 80% floor"; exit 1; }; \
	else \
	  echo "coverage: bisect_ppx not installed; skipping (opam install bisect_ppx)"; \
	fi

doc:
	dune build @doc

clean:
	dune clean
