# Local CI gate.  `make check` = build + formatting + tests (unit,
# property and golden-figure) + a 2-domain determinism selftest of the
# parallel sweep engine + the differential-oracle replay.

DOMAINS ?= 2

.PHONY: all build test fmt promote hotpath-lint selftest oracle soak soak-duplex mesh shards recovery flows bench-sweeps bench-hotpath bench-alloc bench-soak bench-mesh bench-shards bench-recovery bench-flows check

all: build

build:
	dune build

# Includes the golden-figure snapshots under test/golden/: any drift in a
# rendered table or figure fails here with a diff.  After an intentional
# change, `make promote` accepts the new output.
test:
	dune runtest

fmt:
	dune build @fmt

promote:
	dune promote

# No polymorphic comparison on the per-segment path.  After a
# release-profile build of lib/, no object of the receive-and-ACK
# libraries or of sigproto (the Q.93B call-storm layers) may reference
# Stdlib's polymorphic min/max or a polymorphic
# compare primitive: each is a call (the primitives a C call) where
# Int.min/Int.max or a typed comparison is a single instruction.
# caml_hash stays allowed: it is the flow table's slot hash.  Symbols
# are matched with either separator ("." before OCaml 5.2, "$" after).
HOTPATH_LIBS = buf packet tcpmini core flowtable sigproto
HOTPATH_SYMBOLS = camlStdlib[.$$](min|max)_[0-9]+|caml_(compare|equal|notequal|lessequal|lessthan|greaterequal|greaterthan)\b

hotpath-lint:
	dune build --profile release @lib/default
	@fail=0; \
	for d in $(HOTPATH_LIBS); do \
	  objs=$$(find _build/default/lib/$$d -path '*.objs/native/*.o'); \
	  if [ -z "$$objs" ]; then echo "hotpath-lint: no objects in lib/$$d"; exit 1; fi; \
	  for o in $$objs; do \
	    hits=$$(objdump -dr $$o | grep -E '$(HOTPATH_SYMBOLS)'); \
	    if [ -n "$$hits" ]; then echo "$$o:"; echo "$$hits"; fail=1; fi; \
	  done; \
	done; \
	if [ $$fail -ne 0 ]; then \
	  echo "hotpath-lint: polymorphic comparison in $(HOTPATH_LIBS)"; exit 1; \
	fi; \
	echo "hotpath-lint OK"

selftest: build
	dune exec bin/ldlp_repro.exe -- selftest --domains $(DOMAINS)

# Differential oracles (cache, and the scheduler's receive chain,
# transmit chain and full-duplex engine per random workload) + the
# LDLP_CHECK invariant sweep on the real model, run twice: plain, then
# with the runtime invariant gate forced on, so every Engine.run also
# checks its flow-balance, batch-accounting and receive-chain
# conservation invariants.
oracle: build
	dune exec bin/ldlp_repro.exe -- check
	LDLP_CHECK=1 dune exec bin/ldlp_repro.exe -- check

# Chaos soak: seeded fault-injection scenarios (loss, duplication,
# corruption, reordering, link flaps, overload shedding) over the tcpmini
# echo exchange, under both disciplines; fails on any integrity, leak or
# equivalence violation.
soak: build
	dune exec bin/ldlp_repro.exe -- soak --seed 1996 --scenarios 25

# The same chaos scenarios with each host's receive and transmit sides
# under one full-duplex LDLP engine (rx-generated ACKs join the tx queues
# of the same scheduling pass).  Must match the classic tables exactly.
soak-duplex: build
	dune exec bin/ldlp_repro.exe -- soak --seed 1996 --scenarios 25 --duplex

# Many-host mesh figure: N hosts over a seeded random-regular topology,
# broadcast/relay spread under all three wirings (conv / LDLP / duplex)
# plus a Q.93B call storm; per-discipline arrival-latency CDFs and
# BENCH_mesh.json, gated on conservation, cross-wiring equivalence and
# the message-pool leak audit.
mesh: build
	dune exec bin/ldlp_repro.exe -- mesh --seed 1996 --domains $(DOMAINS)

# Sharded data path: the placement/replay figure, the cross-shard
# differential oracle over random workloads (delivered streams, wire
# multisets, conservation ledgers identical at every shard count), and
# the 4-shard call storm checked for exact equality with the
# single-domain run.
shards: build
	dune exec bin/ldlp_repro.exe -- shards --seed 1996

# Crash/restart recovery: the Q.93B call storm under a seeded host
# lifecycle plan with the deterministic retry/backoff/admission engine,
# audited by the recovery oracle (extended conservation, eventual
# completion, cross-wiring equivalence, determinism, shard merge).
recovery: build
	dune exec bin/ldlp_repro.exe -- recovery --seed 1996

# Flow-table locality: the Jain-style scheme comparison (conv vs LDLP
# batch-sorted lookups at 10k/100k flows), the flowtable differential
# oracle, and the cross-discipline digest + D-miss gates.
flows: build
	dune exec bin/ldlp_repro.exe -- flows --seed 1996

# Times every sweep at 1 domain and at N domains; writes BENCH_sweeps.json.
bench-sweeps: build
	dune exec bench/main.exe -- --sweeps

# Conventional vs LDLP hot-path baseline (misses, throughput, latency and
# real allocations per message, metrics-on overhead); writes
# BENCH_hotpath.json and fails if LDLP stops winning on i-misses.
bench-hotpath: build
	dune exec bench/main.exe -- --hotpath

# Allocation gate only: one metrics-on run per discipline, checked
# against the per-message allocation budgets and the throughput floors.
# Cheap enough to ride in `make check` without the full soak matrix.
bench-alloc: build
	dune exec bench/main.exe -- --alloc-gate

# Goodput / retransmission loss ladder; writes BENCH_soak.json.
bench-soak: build
	dune exec bench/main.exe -- --soak

# Mesh host-count sweep (64/256/1024 hosts, pristine + chaos + storms);
# writes BENCH_mesh.json and fails on any conservation, equivalence or
# reload-gate violation.
bench-mesh: build
	dune exec bench/main.exe -- --mesh

# Sharded call storm at 1/2/4 shards; writes BENCH_shards.json (kept even
# on gate failure) and fails unless every sharded row equals the
# single-domain reference and the aggregate CPU-limited rate improves
# with shard count (wall clock additionally gated on multi-core hosts).
bench-shards: build
	dune exec bench/main.exe -- --shards

# Call storm under a crash-severity ladder (25% / 50% / 100% of hosts
# crashing twice); writes BENCH_recovery.json (kept even on gate
# failure) and fails on any conservation, completion, cross-wiring
# equivalence or goodput-floor violation.
bench-recovery: build
	dune exec bench/main.exe -- --recovery

# Flow-count ladder at 10k/100k/1M flows per scheme; writes
# BENCH_flows.json (kept even on gate failure) and fails unless LDLP
# batch-sorting strictly beats conventional lookup order on modeled
# D-misses at 100k and 1M flows with identical delivered-state digests.
bench-flows: build
	dune exec bench/main.exe -- --flows

check: build fmt test selftest oracle bench-alloc soak soak-duplex mesh shards recovery flows
	@echo "check OK"
