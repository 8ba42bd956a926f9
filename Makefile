# SCIERA reproduction — build/verify entry points.
#
# `make verify` is the full pre-merge gate: compile everything, the
# race-enabled test suite (includes the allocation guards and telemetry
# conservation tests), vet, and a gofmt cleanliness check.

GO ?= go

.PHONY: all build test race vet fmt-check alloc-guard doc-check scenario-check snapshot-check examples-smoke bench-smoke fuzz-smoke verify bench bench-compare bench-micro loc reference reference-pki

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
# TestCampaignProbeAllocs), a traffic engine's pacing burst and a flow's whole life, and a control-plane refresh after a core
# flap on the churn topology (a bound per refresh and arm — warm
# unsigned, warm signed, cold, and signed-cold, a signed convergence:
# TestRefreshAllocs).
alloc-guard:
	$(GO) test -count=1 -run 'ZeroAlloc|ProbeAllocs|RefreshAllocs' . ./internal/simnet ./internal/cppki ./internal/daemon ./internal/beacon ./internal/core ./internal/traffic

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
# must load, validate and be in canonical form — its -scenario-dump
# equals the file byte for byte (scenarios/sciera.json is the builtin
# itself: go test ./scenarios holds the same pin); the loadbench builtin
# dumps through the CLI; and a 1-day quick campaign must run end to end
# on a freshly generated multi-ISD topology.
scenario-check:
	@for f in scenarios/*.json; do \
		$(GO) run ./cmd/experiments -scenario-dump -scenario "$$f" | diff -u "$$f" - \
			|| { echo "scenario-check: $$f is not in canonical form (rewrite it with -scenario-dump)"; exit 1; }; \
		echo "scenario-check: $$f loads, validates and is canonical"; \
	done
	@$(GO) run ./cmd/experiments -scenario-dump -scenario loadbench > /dev/null
	@$(GO) run ./cmd/experiments -quick -run fig5 -scenario gen:isds=3,ases=100,seed=1 > /dev/null
	@echo "scenario-check: OK"

# Snapshot round-trip hygiene: a campaign whose workers clone the
# reference's snapshot in memory must reproduce the one-worker campaign
# that converges, byte for byte, across seeds and on both the builtin
# and a generated scenario; snapshot -> serialize -> load -> clone
# reproduces the converged replica's paths, and every beacon counter
# the runner declares survives the file by name; files of format
# versions 1 and 2 are refused by version number; a -pki replica
# installed from a snapshot, in memory or from its file, serves the
# TRCs it adopted.
snapshot-check:
	$(GO) test -count=1 -run 'TestSnapshotWarmStartByteIdentical|TestSnapshotFileRoundTrip|TestSnapshotOldVersionRefused|TestClonedReplicaServesTRC' ./internal/core ./internal/experiments
	@echo "snapshot-check: OK"

# The seven example programs, each run to completion with stdin from
# /dev/null under a timeout: a non-zero exit, or output without the
# line the example exists to show, fails the gate. reverseproxy and
# webclient bind UDP 443 on loopback.
examples-smoke:
	@check() { \
		out=$$(timeout 120 $(GO) run ./examples/$$1 </dev/null 2>&1) \
			|| { echo "$$out"; echo "examples-smoke: $$1 exited non-zero"; exit 1; }; \
		echo "$$out" | grep -qF -- "$$2" \
			|| { echo "$$out"; echo "examples-smoke: $$1 printed no line with '$$2'"; exit 1; }; \
		echo "examples-smoke: $$1 OK"; \
	}; \
	check netcat 'echoed: still feels like netcat'; \
	check peering 'PEERING'; \
	check quickstart 'client: got "echo: hello sciera"'; \
	check reverseproxy 'X-SCION=on'; \
	check sciencedmz 'transfer over 4 path(s)'; \
	check sigbridge 'atm: got "ack:withdrawal #42"'; \
	check webclient 'HTTP/1.1 200 OK'; \
	echo "examples-smoke: OK"

# bench/ is its own module (sciera/bench), so the root `go test ./...`
# never sees its tests: every workload once at smoke scale, the output
# check and the -compare rules (~3 s).
bench-smoke:
	cd bench && $(GO) test ./...

# Native fuzz targets, a few seconds each on top of the checked-in
# corpora under internal/*/testdata/fuzz: the control service's
# untrusted-input boundary (request bytes in, response bytes at the
# daemon), the burst fast-path decode against the full decoder, the
# 64-bit checksum kernel and the in-place pseudo-header sum against the
# 16-bit oracle, the router's path view against the decoded path, the
# beacon store's admission rule against its insert, a control-plane
# refresh from what the last one kept against a cold run after an
# arbitrary sequence of link flaps, attachments, new peerings and a
# timestamp that advances (it re-decides no more candidates, and
# memoized paths carried across it equal a fresh combination), the
# end-host bootstrap hint decoders (DHCP, VIVO, DHCPv6, router
# advertisements) and the DNS codec: no panic, what decodes re-encodes
# to bytes that decode again; the router's forwarding rules (decide) on
# arbitrary path bytes: no panic, one header one verdict, no pass with a
# MAC or SegID bit flipped, the decision and patched bytes of the
# decoded-packet oracle; the call correlator (simnet.Calls) against a
# map oracle: every call resolves exactly once, no live id is handed
# out twice; and the scenario loader (seeded in code from
# scenarios/sciera.json, a small generated scenario and the validation
# table's rejected rows): no panic, what loads dumps to a fixed point
# and its builders return. The 30 KB seed would spend the default minute
# per minimization, hence the bound. A failure leaves its reproducer
# there; `go test` replays it.
fuzz-smoke:
	$(GO) test ./internal/control -run '^$$' -fuzz '^FuzzServiceHandle$$' -fuzztime 3s
	$(GO) test ./internal/control -run '^$$' -fuzz '^FuzzDecodeSegments$$' -fuzztime 3s
	$(GO) test ./internal/slayers -run '^$$' -fuzz '^FuzzDecodeSameFlow$$' -fuzztime 3s
	$(GO) test ./internal/slayers -run '^$$' -fuzz '^FuzzChecksum$$' -fuzztime 3s
	$(GO) test ./internal/spath -run '^$$' -fuzz '^FuzzPathView$$' -fuzztime 3s
	$(GO) test ./internal/beacon -run '^$$' -fuzz '^FuzzStoreAdmit$$' -fuzztime 3s
	$(GO) test ./internal/beacon -run '^$$' -fuzz '^FuzzRefreshAfterFlaps$$' -fuzztime 3s
	$(GO) test ./internal/router -run '^$$' -fuzz '^FuzzDecide$$' -fuzztime 3s
	$(GO) test ./internal/simnet -run '^$$' -fuzz '^FuzzSchedulerEquivalence$$' -fuzztime 3s
	$(GO) test ./internal/simnet -run '^$$' -fuzz '^FuzzCalls$$' -fuzztime 3s
	$(GO) test ./internal/simnet -run '^$$' -fuzz '^FuzzLineDelivery$$' -fuzztime 3s
	$(GO) test ./internal/traffic -run '^$$' -fuzz '^FuzzSinkAccounting$$' -fuzztime 3s
	$(GO) test ./internal/bootstrap -run '^$$' -fuzz '^FuzzBootstrapWire$$' -fuzztime 3s
	$(GO) test ./internal/dns -run '^$$' -fuzz '^FuzzDNSDecode$$' -fuzztime 3s
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzLoadScenario$$' -fuzztime 3s -fuzzminimizetime 20x

# The full pre-merge gate: every check above, the race pass first.
verify: build race alloc-guard vet fmt-check doc-check scenario-check snapshot-check examples-smoke bench-smoke fuzz-smoke
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
