# SCIERA reproduction — build/verify entry points.
#
# `make verify` is the full pre-merge gate: compile everything, the
# race-enabled test suite (includes the allocation guards and telemetry
# conservation tests), vet, and a gofmt cleanliness check.

GO ?= go

.PHONY: all build test race vet fmt-check alloc-guard doc-check scenario-check snapshot-check bench-smoke fuzz-smoke verify bench bench-micro bench-campaign bench-signing bench-dataplane bench-load bench-control bench-setup reference reference-pki

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

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The allocation guards skip under -race (its instrumentation
# allocates), so verify runs them separately without it. Covers the
# router fast path (single-packet and batched), the simulator, the
# warm chain-cache verify path, the daemon's warm combine-cache
# lookup, and path lookups on a snapshot-cloned replica.
alloc-guard:
	$(GO) test -count=1 -run ZeroAlloc . ./internal/simnet ./internal/cppki ./internal/daemon ./internal/core

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
# must load and validate; scenarios/sciera.json must stay in sync with
# the builtin it mirrors; and a 1-day quick campaign must run end to end
# on a freshly generated multi-ISD topology.
scenario-check:
	@for f in scenarios/*.json; do \
		$(GO) run ./cmd/experiments -scenario-dump -scenario "$$f" > /dev/null || exit 1; \
		echo "scenario-check: $$f loads and validates"; \
	done
	@$(GO) run ./cmd/experiments -scenario-dump -scenario sciera | diff -u scenarios/sciera.json - \
		|| { echo "scenario-check: scenarios/sciera.json is out of sync with the builtin (regenerate with -scenario-dump)"; exit 1; }
	@$(GO) run ./cmd/experiments -quick -run fig5 -scenario gen:isds=3,ases=100,seed=1 > /dev/null
	@echo "scenario-check: OK"

# Snapshot round-trip hygiene: snapshot -> serialize -> load -> clone
# must reproduce the cold campaign byte for byte, across seeds and on
# both the builtin and a generated scenario.
snapshot-check:
	$(GO) test -count=1 -run 'TestSnapshotWarmStartByteIdentical|TestSnapshotFileRoundTrip' ./internal/core ./internal/experiments
	@echo "snapshot-check: OK"

# bench/ is its own module (sciera/bench), so the root `go test ./...`
# never sees its tests: every workload once at smoke scale, the output
# check and the -compare rules (~3 s).
bench-smoke:
	cd bench && $(GO) test ./...

# Native fuzz targets on the control service's untrusted-input boundary
# (request bytes in, response bytes at the daemon), a few seconds each
# on top of the checked-in corpus under internal/control/testdata/fuzz.
# A failure leaves its reproducer there; `go test` replays it.
fuzz-smoke:
	$(GO) test ./internal/control -run '^$$' -fuzz '^FuzzServiceHandle$$' -fuzztime 3s
	$(GO) test ./internal/control -run '^$$' -fuzz '^FuzzDecodeSegments$$' -fuzztime 3s

verify: build race alloc-guard vet fmt-check doc-check scenario-check snapshot-check bench-smoke fuzz-smoke
	@echo "verify: OK"

bench: bench-micro bench-campaign bench-signing bench-dataplane bench-load bench-control bench-setup

# Replica warm-start: N independent convergences (cold) vs one
# convergence + N copy-on-write snapshot clones (warm) on a generated
# 200-AS topology, snapshot-cloned campaigns byte-identity-checked at
# 1/2/4/8 workers, warm setup speedup gated at >= 5x; refreshes
# BENCH_setup.json.
bench-setup:
	$(GO) run ./cmd/campaignbench -setup -out BENCH_setup.json

bench-micro:
	$(GO) test -run xxx -bench . -benchmem . ./internal/simnet ./internal/combinator ./internal/segment ./internal/beacon

# Times the full-scale measurement campaign at one worker and at
# NumCPU workers, checks the figure outputs are byte-identical, and
# refreshes BENCH_campaign.json.
bench-campaign:
	$(GO) run ./cmd/campaignbench -out BENCH_campaign.json

# The signed-control-plane ablation: the full campaign with and without
# -pki, byte-identity asserted, signed/unsigned wall ratio checked
# against the 1.3x budget; refreshes BENCH_signing.json.
bench-signing:
	$(GO) run ./cmd/campaignbench -signing -workers 1 -out BENCH_signing.json

# Batched data-plane pps at batch=1/8/32 against the single-packet
# baseline (>= 5x at batch=32 asserted), plus the mixed-burst
# determinism cross-check at several batch-worker counts; refreshes
# BENCH_dataplane.json.
bench-dataplane:
	$(GO) run ./cmd/dataplanebench -out BENCH_dataplane.json

# The million-endpoint flow-level load run: open-loop traffic holding
# >100k flows in flight from >2M simulated endpoints, run once per
# scheduler (binary heap vs calendar queue) with exact workload
# agreement asserted; refreshes BENCH_load.json.
bench-load:
	$(GO) run ./cmd/loadbench -out BENCH_load.json

# Control-plane scale-out on generated 50/100/200-AS topologies:
# path-lookup latency in scan / indexed / memoized-warm modes (warm
# must beat the linear-scan baseline by >= 5x at 200 ASes) plus the
# best-K-vs-unbounded beacon round ablation; refreshes
# BENCH_control.json.
bench-control:
	$(GO) run ./cmd/controlbench -out BENCH_control.json

# Regenerates the committed reference run; diff must be empty.
reference:
	$(GO) run ./cmd/experiments -all -seed 42 > /tmp/sciera-run.txt
	diff docs/reference-run.txt /tmp/sciera-run.txt

# Same, with the signed control plane: -pki must not change a byte.
reference-pki:
	$(GO) run ./cmd/experiments -all -seed 42 -pki > /tmp/sciera-run-pki.txt
	diff docs/reference-run.txt /tmp/sciera-run-pki.txt
