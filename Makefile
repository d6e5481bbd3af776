# disttime — reproduction of Marzullo & Owicki, "Maintaining the Time in
# a Distributed System" (1983). Standard library only; Go 1.23+.

GO ?= go
GOFMT ?= $(shell $(GO) env GOROOT)/bin/gofmt

# Canonical race list: every package that hosts pooled state, the
# parallel experiment runner, or real concurrency. Referenced by BOTH
# `make test` and `make test-race` so no package is raced in one target
# but omitted from the other.
RACE_PKGS = ./internal/par ./internal/sim/... ./internal/experiments \
            ./internal/service ./internal/simnet ./internal/interval \
            ./internal/chaos ./internal/udptime ./internal/obs \
            ./internal/member ./internal/scale ./internal/hlc \
            ./internal/txn ./cmd/...

# Packages whose line coverage is floored by `make cover-check` (and so by
# `make check`): the theorem algebra, the interval sweep, and the
# membership state machine are the proof core, so untested lines there
# are untested math. The event kernel (internal/sim/shard, and
# internal/sim, the closure table over one shard of it that every
# experiment runs on) and par, the experiment fan-out, join the list
# because every untested line there is a potential determinism hole,
# and the lint package joins because an untested analyzer rule is an
# invariant the tree only appears to satisfy.
COVER_FLOOR_PKGS = ./internal/core ./internal/interval ./internal/member \
                   ./internal/par ./internal/sim ./internal/sim/shard \
                   ./internal/scale ./internal/lint ./internal/hlc \
                   ./internal/txn
COVER_FLOOR     ?= 85

.PHONY: all build vet lint test check test-race cover cover-check chaos chaos-replay byz-smoke obs-smoke churn-smoke txn-smoke scale-smoke udp-smoke fuzz-smoke experiments ablations examples clean

all: build vet lint test

build:
	$(GO) build ./...

# vet also fails when gofmt would reformat any file in the tree.
vet:
	$(GO) vet ./...
	@unformatted=$$($(GOFMT) -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting (run $(GOFMT) -w on them):"; \
		echo "$$unformatted"; exit 1; \
	fi

# Static-analysis gate: the seven repo-specific invariant checks
# (nowcheck, globalrand, atomicmix, floateq, mapiter, poolput, guardedby)
# built on the standard library only. See DESIGN.md §10 for the
# invariant each one guards and the planted violation only it caught.
# The tree must be clean of unsuppressed diagnostics, and every
# suppression carries a written justification (the framework rejects
# reasons under three words).
lint:
	$(GO) run ./cmd/disttimelint ./...

# Tier-1 gate: vet, the full suite, and a race pass over RACE_PKGS.
test:
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race $(RACE_PKGS)

# check = vet + lint + test + race + coverage floor + smokes: the tier-1
# tests (the AllocsPerRun tests that hold every hot path at zero
# allocations among them), the lint gate, the proof-core coverage floor, the
# observability/membership determinism smokes, the committed chaos
# corpus replays, and the scale smoke (the scale engine on the event
# kernel, the only one) travel together
# (race rides inside `test` via RACE_PKGS).
check: vet lint test cover-check obs-smoke churn-smoke txn-smoke chaos-replay byz-smoke scale-smoke udp-smoke

test-race:
	$(GO) test -race $(RACE_PKGS)

cover:
	$(GO) test -cover ./...

# Coverage floor over COVER_FLOOR_PKGS: fail if any of them dips below
# COVER_FLOOR percent line coverage.
cover-check:
	@for pkg in $(COVER_FLOOR_PKGS); do \
		line=$$($(GO) test -cover $$pkg | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*'); \
		if [ -z "$$line" ]; then echo "cover-check: no coverage for $$pkg"; exit 1; fi; \
		ok=$$(awk -v c="$$line" -v f="$(COVER_FLOOR)" 'BEGIN { print (c >= f) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then \
			echo "cover-check: $$pkg coverage $$line% below floor $(COVER_FLOOR)%"; exit 1; \
		fi; \
		echo "cover-check: $$pkg $$line% (floor $(COVER_FLOOR)%)"; \
	done

# Chaos conformance: 60 seeded fault campaigns under the always-on
# theorem-invariant monitor (deterministic: identical output every run).
# Failures are shrunk to one-line reproducers; commit the interesting
# ones under internal/chaos/corpus/. See DESIGN.md §11.
chaos:
	$(GO) run ./cmd/timesim -chaos -campaigns 60 -chaos-seed 1

# Replay every committed chaos reproducer: the corpus under
# internal/chaos/corpus/ is the repo's regression suite of interesting
# fault campaigns, so `make check` re-runs each line verbatim.
chaos-replay:
	@for repro in internal/chaos/corpus/*.repro; do \
		echo "chaos-replay: $$repro"; \
		$(GO) run ./cmd/timesim -chaos -replay $$repro || exit 1; \
	done

# The determinism contract every seeded timesim mode is held to: run
# it twice with the same arguments, each run leaving its output in the
# directory it is given as $$out, and compare the two directories byte
# for byte. $(1) is the timesim arguments, $(2) the smoke's name.
define run-twice-and-cmp
	@tmp=$$(mktemp -d) && mkdir $$tmp/1 $$tmp/2 && \
	for out in $$tmp/1 $$tmp/2; do $(GO) run ./cmd/timesim $(1) > $$out/stdout || exit 1; done && \
	diff -r $$tmp/1 $$tmp/2 && rm -rf $$tmp && echo "$(2): two seeded runs byte-identical"
endef

# Byzantine-tier smoke: a seeded batch of adversarial hill-climb
# searches (DESIGN.md §17) — the search, like every chaos mode, is a
# pure function of its seeds — then a replay of the committed two-faced
# reproducer, which must pass under the real byzIM rules (it fails only
# under the planted BuggyIM).
byz-smoke:
	$(call run-twice-and-cmp,-chaos -adversarial -campaigns 10 -adv-steps 15 -chaos-seed 1,byz-smoke)
	$(GO) run ./cmd/timesim -chaos -replay internal/chaos/corpus/buggy-byz-twoface.repro

# Scale smoke, the scale engine on the event kernel: the S1 sweep at
# its CI-sized topology, twice, like every other seeded timesim mode (the full
# 10k/50k/100k sweep is `timesim -scale`; its speed is tracked by the
# sim_scale_* workloads of `bash cmd/bench/run.sh`).
scale-smoke:
	$(call run-twice-and-cmp,-experiment S1,scale-smoke)

# UDP serving-path smoke: the closed-loop load generator against a live
# batched sharded server on the loopback — zero load errors, replies
# received and none beyond those sent, all four percentiles printed (see
# cmd/timeload's TestUDPSmoke) —
# then, under -race, the paper's oracle on both serving backends: lone
# queries beside a 64-deep load, every answer's [C-E, C+E] reaching its
# own send and receive instants with the source's E unwidened (see
# internal/udptime's TestBatchedReadingContained), and the batch
# backend's GRO receive: two trains from one socket cut back into their
# datagrams, a train too long for its buffer cut and counted, the
# real-socket loop at zero allocations (TestRecvSplitsGROTrain).
udp-smoke:
	$(GO) test ./cmd/timeload -run TestUDPSmoke
	$(GO) test -race ./internal/udptime -run 'TestBatchedReadingContained|TestRecvSplitsGROTrain'

# Observability smoke: the obs package under -race, then the seeded
# `timesim -metrics -trace-out` snapshot and span log — the determinism
# contract of DESIGN.md §12 (sorted snapshot keys, shortest round-trip
# floats, passive observation).
obs-smoke:
	$(GO) test -race ./internal/obs
	$(call run-twice-and-cmp,-metrics $$out/m.json -trace-out $$out/t.jsonl,obs-smoke)

# Membership smoke: the dynamic-membership timeline (joins, voluntary
# departures, rejoins, detector verdicts) is a pure function of the seed.
churn-smoke:
	$(call run-twice-and-cmp,-churn 2 -churn-seed 7,churn-smoke)

# Transaction smoke: the commit-wait timeline (HLC stamps, wait lengths,
# the external-consistency verdict) is a pure function of the seed.
txn-smoke:
	$(call run-twice-and-cmp,-txn -txn-seed 7,txn-smoke)

# Short coverage-guided fuzz passes: the M-of-N interval sweep and the
# majority selection over it, each against its naive oracle, every parser
# a datagram reaches on the serving path, the client's matching of a
# datagram to an outstanding request, the event kernel's pending
# set (lanes and heap) against a sorted slice, and the chaos reproducer
# grammar's round trip over generated and corpus campaigns, running every
# small line it accepts (a line Parse accepts must run without a panic).
# FUZZTIME is the budget of the whole smoke in seconds, split
# evenly over the targets; run one target with a larger -fuzztime when
# hunting.
FUZZTIME ?= 10s
FUZZ_TARGETS = interval:FuzzIntersectMofN interval:FuzzSelect wire:FuzzParseRequest \
               wire:FuzzParseRequestHLC wire:FuzzParseResponse hlc:FuzzTimestampCodec \
               udptime:FuzzClientReply sim/shard:FuzzQueue chaos:FuzzCampaignCodec
fuzz-smoke:
	@each=$$(( $(FUZZTIME:s=) / $(words $(FUZZ_TARGETS)) ))s; \
	for t in $(FUZZ_TARGETS); do \
		echo "fuzz-smoke: $$t for $$each"; \
		$(GO) test ./internal/$${t%%:*} -run '^$$' -fuzz "^$${t##*:}\$$" -fuzztime $$each || exit 1; \
	done

# Regenerate the EXPERIMENTS.md data.
experiments:
	$(GO) run ./cmd/timesim -all

ablations:
	$(GO) run ./cmd/timesim -ablations

examples:
	@for d in examples/*/; do echo "=== $$d ==="; $(GO) run ./$$d || exit 1; done

clean:
	$(GO) clean ./...
