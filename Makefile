.PHONY: all check test lint doc clean no-oracles figures figures-check bench-e2e bench-cdg bench-routing bench-analysis bench-break break-smoke analyze-examples kernel-equivalence bench-service smoke-service coverage zoo soak soak-smoke churn-smoke

all:
	dune build

# The tier-1 gate: everything compiles (dev and release profiles),
# every test suite passes (runtest includes test_parallel, the 2-domain
# determinism smoke of the parallel routing pipeline, and test_spf, the
# kernel-equivalence property suite), the routing certifier signs off
# on the example topologies, the SSSP kernels agree bit-for-bit on
# the quick equivalence fixtures, the SCC cycle-break engine stays
# within a layer of the test-only DFS oracle on a small torus
# (break-smoke), the topology-zoo conformance battery certifies every
# corpus file and generator sample, a quick churn soak (>= 200 seeded
# events) survives with every epoch recertified, a
# layer-tight torus converges on every churn event under DFSSSP and
# under LASH's Pearce-Kelly placement on the degraded fabric
# (churn-smoke), no oracle has leaked back into the shipped code
# (no-oracles), and every committed deterministic figure CSV is what the
# code prints today (figures-check).
check:
	dune build && dune build --profile release && dune runtest && $(MAKE) no-oracles && $(MAKE) lint && $(MAKE) analyze-examples && $(MAKE) kernel-equivalence && $(MAKE) break-smoke && $(MAKE) smoke-service && $(MAKE) zoo && $(MAKE) soak-smoke && $(MAKE) churn-smoke && $(MAKE) figures-check

# The paper's tables and figures: every Harness.Experiments entry except
# the full-scale ones, at fabric_tool experiment's defaults (scale 1/4,
# sweeps to 512 endpoints, 30 bisection patterns, 5 random-topology
# seeds), one CSV per table into bench_results/. About 15 s in release
# mode on a 2-vCPU VM. Paper scale: fabric_tool experiment all --scale 1
# --max-endpoints 4096 --patterns 1000 --trials 100 (CPU-hours).
figures:
	dune exec --profile release bin/fabric_tool.exe -- experiment all --csv bench_results

# The figure CSVs that hold wall-clock times, so no two runs agree:
# figures-check skips them, and only `make figures` rewrites them.
TIMING_CSVS = \
  fig__7__routing_runtime__k_ary_n_tree.csv \
  fig__8__routing_runtime__real_systems__scale_1_4_.csv \
  complexity__cdg_size_and_offline_assignment_cost_on_the_k_ary_n_tree_sweep__prop__2_.csv \
  ablation__online_cycle_check_engines_vs_offline_sweep__k_ary_n_tree__sssp_paths_.csv

# Part of `check`: regenerate every figure into a scratch directory and
# require each CSV outside TIMING_CSVS to be committed byte for byte, so
# a change that moves a published number must commit the new CSV.
figures-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	dune exec --profile release bin/fabric_tool.exe -- experiment all --csv $$tmp > /dev/null; \
	stale=0; \
	for f in $$(ls $$tmp bench_results | grep '\.csv$$' | sort -u); do \
	  case " $(TIMING_CSVS) " in *" $$f "*) continue;; esac; \
	  cmp -s $$tmp/$$f bench_results/$$f || { echo "figures-check: bench_results/$$f differs from what the code prints (run make figures)"; stale=1; }; \
	done; \
	[ $$stale = 0 ]; echo "figures-check: OK"

# Oracles and reference implementations live in the test-only `oracles`
# library (test/oracles/), linked by the test suites and benches alone.
# Fails if a shipped dune file names that library, or if code under lib/
# or bin/ (comments stripped, nested ones included) mentions Dijkstra,
# Cdg_ref, Acyclic, Acyclic_ref, Sequential_ref or Dfs_ref, the oracles
# and reference implementations that used to ship.
no-oracles:
	@if grep -lw oracles lib/*/dune bin/dune; then \
	  echo "no-oracles: the dune files above link the test-only oracles library"; exit 1; fi
	@find lib bin \( -name '*.ml' -o -name '*.mli' \) | sort | xargs perl -0777 -n test/oracles/shipped_names.pl
	@echo "no-oracles: OK"

# Topology-zoo conformance battery (doc/topology_ingestion.md): every
# file under examples/zoo plus the seeded jellyfish/xpander samples,
# through the full registry, certifier, existence lower bounds and
# SSSP kernel parity (test_zoo adds cycle-break engine parity against
# the DFS oracle). Exit 0 iff zero conformance failures.
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

# The gated benches below share bench/kit.ml: each writes
# bench_results/<name>.json with one "gates" object whose statuses are
# pass, fail or "skipped: <reason>", and exits 1 iff a gate failed. A
# parallel-speedup gate is skipped, never passed, on a box with fewer
# hardware domains than it needs.

# Route-store / CSR CDG microbenchmark (DESIGN.md §10). Writes
# bench_results/route_store.json; gates: >= 2x build+cycle-breaking
# speedup (speedup) and the zero-allocation hot loop (alloc).
bench-cdg:
	dune exec --profile release bench/cdg_bench.exe

# Static-analyzer cost benchmark (doc/static_analysis.md). Writes
# bench_results/analysis.json; gate (ratio): Existence.analyze within 10%
# of the dfsssp route-build time on a 4096-endpoint XGFT.
bench-analysis:
	dune exec --profile release bench/analysis_bench.exe

# Cycle-break engine benchmark (DESIGN.md §17): SCC condensation vs the
# one-cycle-at-a-time DFS oracle (the test-only Oracles.Dfs_ref),
# sequential and across domains, with per-stage condense/evict/rebuild
# splits. Writes
# bench_results/cycle_break.json; gates: SCC >= 2x DFS on the torus
# workloads (scc_2x), layer counts within oracle+1 (layers_within_1),
# parallel planning >= 0.9x sequential (par_not_slower, skipped below 2
# hardware domains). Each workload races until every engine has run for
# 1.5 s (at least 3 rounds); the round count is in the JSON.
bench-break:
	dune exec --profile release bench/break_bench.exe

# Quick engine-parity mode of the same binary (seconds, no timing
# gates): the SCC engine must stay within one layer of the DFS oracle
# on a small torus. Part of `check`.
break-smoke:
	dune exec --profile release bench/break_bench.exe -- --quick

# Domain-parallel routing pipeline benchmark (DESIGN.md §12, §15).
# Writes bench_results/routing_parallel.json with sequential vs parallel
# SSSP + cycle-breaking times, per-stage (snapshot/compute) splits, and
# a per-kernel comparison (heap vs bucket vs incremental). Gates:
# parallel SSSP >= 1.0x sequential on every topology
# (parallel_not_slower, skipped below 2 hardware domains), bucket >= 1.3x
# heap on the bucket-gated rows (bucket_kernel), the default (Auto)
# kernel within 5% of the fastest (default_kernel_fastest), the >= 2x
# pipeline speedup (pipeline_2x, skipped below 4 hardware domains), and
# in bench_results/obs_overhead.json the disabled-instrumentation
# tripwire against the previous run (obs_disabled_overhead).
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
# run records its qps and a host reference kernel's time as the baseline
# (gate skipped); later runs fail below 40% of it, scaled by the ratio of
# the reference times (throughput), and any refused request fails
# no_errors.
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
