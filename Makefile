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
# internal/sim, the one-node face whose handler table runs the event
# kinds of every experiment) and par, the experiment fan-out, join the list
# because every untested line there is a potential determinism hole,
# and the lint package joins because an untested analyzer rule is an
# invariant the tree only appears to satisfy. internal/clock joins because
# its clocks feed the theorem checks: chaos's clock faults wrap its three
# failure clocks, and core.Server charges the slewing clock's lag to E.
# internal/udptime joins because every server of the product serves on
# it: rule MM-1 on a real socket, both I/O backends and the idle-to-loaded
# switch of the batch one. internal/chaos joins because its monitor is the
# theorems' oracle and compares with no tolerance of its own: an untested
# invariant there is a theorem the campaigns only appear to check.
# internal/obs joins because both substrates' per-pass metrics go through
# its one sink (PassMetrics) and every span through its encoder: an
# untested line there is a figure of the evaluation that only appears to
# be measured.
COVER_FLOOR_PKGS = ./internal/core ./internal/interval ./internal/member \
                   ./internal/par ./internal/sim ./internal/sim/shard \
                   ./internal/scale ./internal/lint ./internal/hlc \
                   ./internal/txn ./internal/clock ./internal/udptime \
                   ./internal/chaos ./internal/obs
COVER_FLOOR     ?= 85

.PHONY: all build vet lint test check test-race cover cover-check inline-check fuzz-smoke experiments ablations examples clean

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

# Tier-1 gate: vet (gofmt included), the full suite, and a race pass over
# RACE_PKGS. The suite pins every seeded timesim output, byte for byte
# across commits (cmd/timesim's TestSeededOutputsPinned).
test: vet
	$(GO) test ./...
	$(GO) test -race $(RACE_PKGS)

# check = vet + lint + test + coverage floor + inline gate: the tier-1
# tests (the AllocsPerRun tests that hold every hot path at zero
# allocations, the pinned seeded outputs and the serving table among
# them), the lint gate, the proof-core coverage floor and the inlined
# per-message rules travel together (race rides inside `test` via
# RACE_PKGS, which races the live serving path's tests).
check: vet lint test cover-check inline-check

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

# Short coverage-guided fuzz passes: the interval sweep's span at
# coverage m (FuzzMarzulloSpan, the envelope ByzIM adopts) and the
# majority selection over the sweep, each against its naive oracle, every parser
# a datagram reaches on the serving path, the client's matching of a
# datagram to an outstanding request, the event kernel's pending
# set (lanes and heap) against a sorted slice, and the chaos reproducer
# grammar's round trip over generated and corpus campaigns, running every
# small line it accepts (a line Parse accepts must run without a panic),
# and the scale engine's configuration (New rejects it or runs it without
# a panic; an IM run with every drift within delta/(1+delta) ends
# consistent with no reply after its close), and a reply's transit charge
# over a delay band (FuzzChargeBand: any legs in the band, any drift
# within its bound, the true time inside).
# FUZZTIME is the budget of the whole smoke in seconds, split
# evenly over the targets but never below a second each (go test reads
# -fuzztime 0s as no limit); run one target with a larger -fuzztime when
# hunting.
FUZZTIME ?= 10s
FUZZ_TARGETS = interval:FuzzMarzulloSpan interval:FuzzSelect wire:FuzzParseRequest \
               wire:FuzzParseRequestHLC wire:FuzzParseResponse wire:FuzzResponseID \
               hlc:FuzzTimestampCodec \
               udptime:FuzzClientReply sim/shard:FuzzQueue chaos:FuzzCampaignCodec \
               scale:FuzzScaleConfig core:FuzzDiscipline core:FuzzChargeBand
fuzz-smoke:
	@each=$$(( $(FUZZTIME:s=) / $(words $(FUZZ_TARGETS)) )); \
	each=$$(( each > 0 ? each : 1 ))s; \
	for t in $(FUZZ_TARGETS); do \
		echo "fuzz-smoke: $$t for $$each"; \
		$(GO) test ./internal/$${t%%:*} -run '^$$' -fuzz "^$${t##*:}\$$" -fuzztime $$each || exit 1; \
	done

# The rule calls the scale engine makes once per message, in ask,
# request, reply and close, each as function:callee. A callee with a dot
# is core's (a rule, or the band's delay draw); one without is an Engine
# method. Every
# one must inline: go build -gcflags=-m must report "inlining call to" it
# on a line of its function, or the engine pays a call per message.
# core.Charge inlines at cost 79 and core.Narrow at 78 of Go's 80, so
# one more operation in either fails here (DESIGN.md §3).
INLINE_CALLS = ask:core.Band.Draw \
               request:band request:core.Band.Draw request:core.AgedError request:core.Leg request:core.Consistent \
               request:core.Widen request:core.Fold request:core.Narrow \
               reply:band reply:core.Charge reply:core.Offset reply:core.Consistent \
               reply:core.AgedError reply:core.Widen reply:core.Fold \
               close:core.Widen close:core.Midpoint
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/scale 2>&1) || { echo "$$out"; exit 1; }; \
	fail=0; \
	for c in $(INLINE_CALLS); do \
		fn=$${c%%:*}; callee=$${c#*:}; \
		case $$callee in *.*) ;; *) callee="(*Engine).$$callee";; esac; \
		lines=" $$(awk -v fn="$$fn" 'index($$0, "func (e *Engine) " fn "(") == 1 {on = 1} on {printf "%d ", NR} on && /^}/ {exit}' internal/scale/engine.go)"; \
		if ! echo "$$out" | awk -F: -v want="inlining call to $$callee" -v lines="$$lines" \
			'$$1 == "internal/scale/engine.go" && index(lines, " " $$2 " ") && substr($$0, length($$0) - length(want) + 1) == want {found = 1} END {exit !found}'; then \
			echo "inline-check: scale.Engine.$$fn does not inline its call to $$callee"; fail=1; \
		fi; \
	done; \
	if [ $$fail = 0 ]; then echo "inline-check: $(words $(INLINE_CALLS)) rule calls inline"; fi; \
	exit $$fail

# Regenerate the EXPERIMENTS.md data.
experiments:
	$(GO) run ./cmd/timesim -all

ablations:
	$(GO) run ./cmd/timesim -ablations

examples:
	@for d in examples/*/; do echo "=== $$d ==="; $(GO) run ./$$d || exit 1; done

clean:
	$(GO) clean ./...
