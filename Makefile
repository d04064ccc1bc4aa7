# ESR build and correctness gate.
#
# `make check` is the full gate CI runs: build, go vet, esrvet (the
# project-specific analyzers, see internal/analysis), the test suite,
# and the race detector over the concurrency-bearing packages.

GO ?= go

# Packages whose goroutine/lock structure warrants the race detector on
# every run: the lock manager, the simulated network, the stable queues,
# the group-commit WAL, the transaction core and its write path, the
# replica state machine, the metrics registry every one of them writes
# concurrently, the replicated sequencer, and the four method engines
# driving the write path.
RACE_PKGS := ./internal/lock/... ./internal/network/... ./internal/queue/... ./internal/wal/... ./internal/core/... ./internal/replica/... ./internal/metrics/... ./internal/seqrep/... ./internal/ordup/... ./internal/commu/... ./internal/ritu/... ./internal/compe/...

.PHONY: all build test race vet esrvet check bench bench-compare node smoke-node smoke-chaos fuzz clean

all: build

build:
	$(GO) build ./...

# A parked read gate fails in two minutes, not the ten-minute default.
test:
	$(GO) test -timeout 120s ./...

race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -run TestParallelApplyEquivalence ./internal/sim/

vet:
	$(GO) vet ./...

# esrvet runs from source so the gate never depends on a stale binary;
# any finding fails it.  The analysis fixtures must stay valid Go under
# go vet (wildcards skip testdata, so the fixture dirs are vetted
# explicitly).
esrvet:
	$(GO) run ./cmd/esrvet ./...
	bash scripts/vet_fixtures.sh

check: build vet esrvet test race

# The repository's one benchmark (BENCHMARK.json, benchmark/README.md);
# `make bench-compare A=old.json B=new.json` compares two result files.
bench:
	bash benchmark/run.sh -seed 1 -out bench-result.json

bench-compare:
	bash benchmark/run.sh -compare $(A) $(B)

# Multi-process deployment: `make node` builds the per-site server
# binary; `make smoke-node` runs a 3-process cluster per method over
# loopback TCP and requires byte-identical store dumps (RACE=1 builds
# the nodes with the race detector, which is how CI runs it).
node:
	$(GO) build -o esrnode ./cmd/esrnode

smoke-node:
	bash scripts/smoke_node.sh

# Replicated-sequencer failover drill: a 3-process ordup cluster with
# -seqrep, kill -9 of the leading process mid-load, cold restart over
# the surviving journals, byte-identical dumps required.
smoke-chaos:
	CHAOS=1 bash scripts/smoke_node.sh

# Short fuzz bursts over the history parser and checkers, the MSet codec,
# the journal recovery every journal shares and the TCP frame decoder;
# the corpus seeds also run as plain tests under `make test`.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/history/ -run=^$$ -fuzz=FuzzParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/et/ -run=^$$ -fuzz=FuzzMSetCodec -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/queue/ -run=^$$ -fuzz=FuzzJournalRecovery -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/network/ -run=^$$ -fuzz=FuzzReadFrame -fuzztime=$(FUZZTIME)

clean:
	$(GO) clean ./...
	rm -f esrvet esrnode
