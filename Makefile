# SCIERA reproduction — build/verify entry points.
#
# `make verify` is the full pre-merge gate: compile everything, the
# race-enabled test suite (includes the allocation guards and telemetry
# conservation tests), vet, and a gofmt cleanliness check.

GO ?= go

.PHONY: all build test race vet fmt-check alloc-guard doc-check scenario-check snapshot-check bench-smoke fuzz-smoke verify bench bench-compare bench-micro loc reference reference-pki

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector is ~20x on a single-core host and the experiments
# package runs dozens of full campaigns; the default 10m per-package
# timeout is not enough there.
race:
	$(GO) test -race -timeout 40m ./...

# bench/ is its own module; the root ./... never sees it.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The allocation guards skip under -race (its instrumentation
# allocates), so verify runs them separately without it. Covers the
# router fast path (runs of one and of 32), the simulator, the
# warm chain-cache verify path, the daemon's NotModified re-confirm,
# memoized path lookups on a registry (two stamp reads and a map probe),
# its clone and a snapshot-cloned replica, the campaign's probe path (a bound per probe, not zero:
# TestCampaignProbeAllocs) and a control-plane refresh after a core
# flap on the churn topology (a bound per refresh and arm — warm
# unsigned, warm signed, cold, and signed-cold, a signed convergence:
# TestRefreshAllocs).
alloc-guard:
	$(GO) test -count=1 -run 'ZeroAlloc|ProbeAllocs|RefreshAllocs' . ./internal/simnet ./internal/cppki ./internal/daemon ./internal/beacon ./internal/core

# Every internal package must carry a godoc package comment: the
# architecture guide (docs/architecture.md) leans on them as the
# per-package reference, so a missing one is a docs regression.
doc-check:
	@missing=""; \
	for d in internal/*/; do \
		ok=0; \
		for f in $$d*.go; do \
			case "$$f" in *_test.go) continue;; esac; \
			[ -e "$$f" ] || continue; \
			if grep -B1 -m1 '^package ' "$$f" | head -1 | grep -q '^//'; then ok=1; break; fi; \
		done; \
		if [ "$$ok" -eq 0 ]; then missing="$$missing $$d"; fi; \
	done; \
	if [ -n "$$missing" ]; then echo "doc-check: missing package comments:$$missing"; exit 1; fi; \
	echo "doc-check: OK"

# Scenario hygiene (docs/scenarios.md): every committed scenario file
# must load and validate; scenarios/sciera.json must equal the builtin's
# canonical dump (go test ./internal/sciera holds the same pin); both
# builtins dump through the CLI; and a 1-day quick campaign must run end
# to end on a freshly generated multi-ISD topology.
scenario-check:
	@for f in scenarios/*.json; do \
		$(GO) run ./cmd/experiments -scenario-dump -scenario "$$f" > /dev/null || exit 1; \
		echo "scenario-check: $$f loads and validates"; \
	done
	@$(GO) run ./cmd/experiments -scenario-dump -scenario sciera | diff -u scenarios/sciera.json - \
		|| { echo "scenario-check: scenarios/sciera.json is out of sync with the builtin (regenerate with -scenario-dump)"; exit 1; }
	@$(GO) run ./cmd/experiments -scenario-dump -scenario loadbench > /dev/null
	@$(GO) run ./cmd/experiments -quick -run fig5 -scenario gen:isds=3,ases=100,seed=1 > /dev/null
	@echo "scenario-check: OK"

# Snapshot round-trip hygiene: snapshot -> serialize -> load -> clone
# must reproduce the cold campaign byte for byte, across seeds and on
# both the builtin and a generated scenario; every beacon counter the
# runner declares survives the file by name; files of format versions 1
# and 2 are refused by version number; a -pki replica installed from a
# snapshot, in memory or from its file, serves the TRCs it adopted.
snapshot-check:
	$(GO) test -count=1 -run 'TestSnapshotWarmStartByteIdentical|TestSnapshotFileRoundTrip|TestSnapshotOldVersionRefused|TestClonedReplicaServesTRC' ./internal/core ./internal/experiments
	@echo "snapshot-check: OK"

# bench/ is its own module (sciera/bench), so the root `go test ./...`
# never sees its tests: every workload once at smoke scale, the output
# check and the -compare rules (~3 s).
bench-smoke:
	cd bench && $(GO) test ./...

# Native fuzz targets, a few seconds each on top of the checked-in
# corpora under internal/*/testdata/fuzz: the control service's
# untrusted-input boundary (request bytes in, response bytes at the
# daemon), the burst fast-path decode against the full decoder, the
# beacon store's admission rule against its insert, a control-plane
# refresh from what the last one kept against a cold run after an
# arbitrary sequence of link flaps, attachments and new peerings, the
# router's
# forwarding rules (decide) on arbitrary path bytes: no panic, one
# header one verdict, no pass with a MAC or SegID bit flipped; and the
# scenario loader (seeded in code from scenarios/sciera.json, a small
# generated scenario and the validation table's rejected rows): no
# panic, what loads dumps to a fixed point and its builders return. The
# 30 KB seed would spend the default minute per minimization, hence the
# bound.
# A failure leaves its reproducer there; `go test` replays it.
fuzz-smoke:
	$(GO) test ./internal/control -run '^$$' -fuzz '^FuzzServiceHandle$$' -fuzztime 3s
	$(GO) test ./internal/control -run '^$$' -fuzz '^FuzzDecodeSegments$$' -fuzztime 3s
	$(GO) test ./internal/slayers -run '^$$' -fuzz '^FuzzDecodeSameFlow$$' -fuzztime 3s
	$(GO) test ./internal/beacon -run '^$$' -fuzz '^FuzzStoreAdmit$$' -fuzztime 3s
	$(GO) test ./internal/beacon -run '^$$' -fuzz '^FuzzRefreshAfterFlaps$$' -fuzztime 3s
	$(GO) test ./internal/router -run '^$$' -fuzz '^FuzzDecide$$' -fuzztime 3s
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzLoadScenario$$' -fuzztime 3s -fuzzminimizetime 20x

verify: build race alloc-guard vet fmt-check doc-check scenario-check snapshot-check bench-smoke fuzz-smoke
	@echo "verify: OK"

# The repo's one benchmark (bench/README.md, BENCHMARK.json): four
# workloads, end-to-end metrics, simulated output checked against
# bench/expected. Extra flags: make bench ARGS='--workload forward-chain'.
bench:
	$(GO) run -C bench . $(ARGS)

# Noise-aware verdict on two result files written by `make bench` at
# two commits (bench/README.md, "-compare"); exits non-zero on a
# regression. Paths are taken relative to the repo root.
bench-compare:
	$(GO) run -C bench . -compare $(abspath $(OLD)) $(abspath $(NEW))

bench-micro:
	$(GO) test -run xxx -bench . -benchmem . ./internal/simnet ./internal/combinator ./internal/segment ./internal/beacon

# Non-test Go lines outside bench/: the figure deletion PRs quote.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l

# Regenerates the committed reference run; diff must be empty.
reference:
	$(GO) run ./cmd/experiments -all -seed 42 > /tmp/sciera-run.txt
	diff docs/reference-run.txt /tmp/sciera-run.txt

# Same, with the signed control plane: -pki must not change a byte.
reference-pki:
	$(GO) run ./cmd/experiments -all -seed 42 -pki > /tmp/sciera-run-pki.txt
	diff docs/reference-run.txt /tmp/sciera-run-pki.txt
