.PHONY: all check check-seeds check-reachable test bench bench-quick bench-hotpath bench-hotpath-capture bench-serve bench-scale bench-epoch bench-epoch-quick bench-pow bench-pow-quick regen-goldens fmt clean

all:
	dune build

check: check-seeds

# The full test suite plus a seed sweep of the fault-injection
# experiments: E21/E22, their fault-free anchor E19, the agreement
# sublayer E24, and the PoW controller sweep E26 at three distinct
# seeds, so seed-dependent regressions (not just seed-1 goldens)
# surface before a commit.
check-seeds:
	dune build && dune runtest
	@for seed in 1 7 1337; do \
	  echo "== seed sweep: e19/e21/e22/e24/e26 at seed $$seed =="; \
	  dune exec bin/tinygroups_cli.exe -- e19 --scale quick --seed $$seed --jobs 1 > /dev/null || exit 1; \
	  dune exec bin/tinygroups_cli.exe -- e21 --scale quick --seed $$seed --jobs 1 > /dev/null || exit 1; \
	  dune exec bin/tinygroups_cli.exe -- e22 --scale quick --seed $$seed --jobs 1 > /dev/null || exit 1; \
	  dune exec bin/tinygroups_cli.exe -- e24 --scale quick --seed $$seed --jobs 1 > /dev/null || exit 1; \
	  dune exec bin/tinygroups_cli.exe -- e26 --scale quick --seed $$seed --jobs 1 > /dev/null || exit 1; \
	done
	@for seed in 1 7 1337; do \
	  echo "== epoch-transition jobs sweep at seed $$seed =="; \
	  dune exec bench/epoch.exe -- --determinism-only --scale quick --seed $$seed || exit 1; \
	done
	@echo "seed sweep OK"

# Fail when a library module is reachable only from tests: each
# lib/**/*.ml must be reached from code in lib/, bench/, bin/,
# examples/ or perfbench/ outside its own .ml/.mli — a qualified path
# [Mod.x] (not an odoc [{!Mod.x}] reference), an [open]/[include] of
# it, or a [module X = ...Mod] alias. A bare mention in a comment
# does not count.
check-reachable:
	@fail=0; \
	for f in $$(git ls-files 'lib/*.ml'); do \
	  base=$${f%.ml}; \
	  mod=$$(basename "$$base" | awk '{ print toupper(substr($$0, 1, 1)) substr($$0, 2) }'); \
	  path="([A-Z][A-Za-z0-9_']*\.)*"; \
	  end="([^A-Za-z0-9_']|$$)"; \
	  if ! git grep -qE \
	      -e "(^|[^A-Za-z0-9_'.!])$$path$$mod\.[A-Za-z_(]" \
	      -e "(^|[^A-Za-z0-9_'])(open!?|include)[[:space:]]+$$path$$mod$$end" \
	      -e "(^|[^A-Za-z0-9_'])module[[:space:]]+[A-Z][A-Za-z0-9_']*[[:space:]]*=[[:space:]]*$$path$$mod$$end" \
	      -- lib bench bin examples perfbench ":!$$base.ml" ":!$$base.mli"; then \
	    echo "check-reachable: $$mod ($$f) has no caller outside test/"; \
	    fail=1; \
	  fi; \
	done; \
	if [ $$fail -ne 0 ]; then exit 1; fi; \
	echo "check-reachable OK"

test: check

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- --scale quick --jobs 2 --skip-timings

# Hot-path micro + e2e benches (quick scale, jobs 1) with the
# committed before/after baseline; writes BENCH_hotpath.json.
bench-hotpath:
	dune exec bench/hotpath.exe

# Re-capture the hot-path baseline: three interleaved passes, prints
# the per-row medians as a paste-ready [baseline] literal for
# bench/hotpath.ml (use when a perf PR resets the reference point).
bench-hotpath-capture:
	dune exec bench/hotpath.exe -- --capture

# The closed-loop serving tier (E23) at quick scale, seed 1, jobs 1;
# rewrites the committed BENCH_serve.json artifact.
bench-serve:
	dune exec bin/tinygroups_cli.exe -- serve --scale quick --seed 1 --jobs 1 --out BENCH_serve.json

# The stress scale tier (E25) at n = 2^17..2^20, seed 1, jobs 1;
# rewrites the committed BENCH_scale.json artifact (peak RSS and
# wall-clock per n live only there — the table stays deterministic).
# Budget ~8-10 minutes and ~5.5 GB peak RSS on one core.
bench-scale:
	dune exec bin/tinygroups_cli.exe -- scale --scale stress --seed 1 --jobs 1 --out BENCH_scale.json

# The parallel epoch-transition bench: Epoch.advance and
# Group_graph.build_direct at jobs 1/2/4 per n, determinism asserted
# on every pair, speedup asserted only when the recorded core count
# exceeds 1. Rewrites the committed BENCH_epoch.json artifact.
bench-epoch:
	dune exec bench/epoch.exe -- --scale stress --seed 1 --out BENCH_epoch.json

# CI variant (~10 s): same assertions at quick scale; the artifact is
# uploaded by the workflow, not committed.
bench-epoch-quick:
	dune exec bench/epoch.exe -- --scale quick --seed 1 --out BENCH_epoch_quick.json

# The PoW difficulty-controller sweep (E26) at standard scale, seed 1,
# jobs 1; rewrites the committed BENCH_pow.json artifact (wall-clock
# per cell lives only there — the table and every spend ledger stay
# deterministic). Budget ~45 s on one core.
bench-pow:
	dune exec bin/tinygroups_cli.exe -- pow --scale standard --seed 1 --jobs 1 --out BENCH_pow.json

# CI variant (~4 s): quick scale; the artifact is uploaded by the
# workflow, not committed.
bench-pow-quick:
	dune exec bin/tinygroups_cli.exe -- pow --scale quick --seed 1 --jobs 1 --out BENCH_pow_quick.json

# Re-bless the golden digest table: run every registry entry at
# (Quick scale, seed 1, jobs 1) and rewrite test/golden_digests.txt.
# A digest change must land with its cause recorded in the provenance
# appendix of EXPERIMENTS.md.
regen-goldens:
	dune exec bin/regen_goldens.exe

fmt:
	dune build @fmt --auto-promote

clean:
	dune clean
