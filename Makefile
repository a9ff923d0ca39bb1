GO ?= go
# Extra build flags for the smokes' tool builds: make reach sets COVER to a
# coverage build and RACE to nothing (under the race detector a coverage
# build counts atomically, and one race-built coverage noxsweep -fast sweep
# alone ran past six minutes).
COVER ?=
RACE ?= -race

.PHONY: check build fmt vet lint test test-ids reach alloc-guard race shard-race ab ab-smoke bench-repo-smoke cli-smoke results-check trace-smoke fault-smoke fault-perm-smoke telemetry-smoke snapshot-smoke fuzz-smoke

## check: the CI gate — build, gofmt, vet, static analysis, the allocation guards
## (seconds: an allocation back in the inject/step/deliver loop fails before
## the long suites start), the full test suite
## under the race detector (the parallel experiment engine makes this
## mandatory), the sharded executor's barrier at three GOMAXPROCS
## settings, the tools' bad-input exits, the tracing, fault-injection
## (transient and permanent), live telemetry, and warm-image smoke
## tests (committed snapshot images), a short fuzz pass over
## the user-facing decoders and the arrival skip-ahead and skip map, all
## six committed results files (about a minute), the repo
## benchmark's own tests, and one A/A pair through the paired benchmark
## runner.
check: build fmt vet lint alloc-guard race shard-race cli-smoke results-check trace-smoke fault-smoke fault-perm-smoke telemetry-smoke snapshot-smoke fuzz-smoke bench-repo-smoke ab-smoke

build:
	$(GO) build ./...

## fmt: every Go file is gofmt-formatted (gofmt -l lists none).
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "fmt: gofmt -l lists:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

## lint: staticcheck and govulncheck when installed; each is skipped with a
## note otherwise, so check works on a bare toolchain.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

test:
	$(GO) test ./...

## test-ids: the sorted package:Test/Sub IDs of the tier-1 suite (the "run"
## actions of go test -json), one a line, to diff one revision's list against
## another's.
test-ids:
	@$(GO) test -count=1 -json ./... | sed -n 's/.*"Action":"run","Package":"\([^"]*\)","Test":"\([^"]*\)".*/\1:\2/p' | sort

## alloc-guard: the zero-allocation contracts of the simulation loop — the
## kernel walk, the sharded step, packets turning around on their slab, and
## the whole loaded inject -> step -> deliver loop on all four architectures,
## fault-free and with a dead link plus retransmission (slots reused when
## their last owner lets go) — of the cell: a network rebuilt on the storage
## of a closed one of its shape allocates only its record and lanes
## (TestRebuildAllocs) — and of the measurement path: recording a latency
## allocates nothing, and a synthetic point's bytes do not grow with its
## measurement window (measured after a warm cell, so recycled storage cannot
## hide the growth); and an application trace is generated in a handful of
## allocations, not one per transaction.
## AllocsPerRun counts are exact only without the race detector, so this runs
## plain, and first.
alloc-guard:
	$(GO) test -run 'Allocs' -count=1 ./internal/network ./internal/sim ./internal/noc ./internal/stats ./internal/harness ./internal/trace

## race: every package under the race detector; internal/harness (about
## 8 min on 2 vCPUs) in its own go test run, so no other package's race
## binary shares the CPUs with it. Ends with each package's race wall time,
## longest first, against go test's 600 s per-binary timeout ("cached" when
## go test reused an earlier result).
race:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	{ $(GO) test -race $$($(GO) list ./... | grep -v '/internal/harness$$') 2>&1; echo $$? > "$$tmp/st1"; } | tee "$$tmp/out"; \
	{ $(GO) test -race ./internal/harness 2>&1; echo $$? > "$$tmp/st2"; } | tee -a "$$tmp/out"; \
	echo "race: wall time per package (go test times out a test binary at 600 s):"; \
	awk '($$1 == "ok" || $$1 == "FAIL") && NF == 3 { t = $$3 == "(cached)" ? "cached  " : $$3; sub(/s$$/, " s", t); printf "%10s  %-4s %s\n", t, $$1, $$2 }' "$$tmp/out" | sort -rn; \
	test "$$(cat "$$tmp/st1")" = 0 && test "$$(cat "$$tmp/st2")" = 0

## shard-race: the sharded executor's tests under the race detector at
## GOMAXPROCS 1, 2 and 4. The phase barrier spins only while shards <=
## GOMAXPROCS, so one setting alone leaves regimes unrun: at 1 every waiter
## parks at once, at 2 and 4 the 2- and 3-shard cases spin, and the 7-, 8-
## and 16-shard cases mix both on every host. TestFaultedSteadyStateAllocs
## adds retransmission, whose interfaces let go of packet slots on the shard
## workers and hand them to the step epilogue through the shard mailboxes.
## TestShardCrossFedLatch has two workers raise bits of one router's
## staged-input mask in the same compute phase. TestAppClassConcurrency
## steps an app replay's class networks on their own goroutines and
## compares them with the coupled schedule.
shard-race:
	$(GO) test -race -cpu 1,2,4 -run 'Shard|Barrier|TestFaultedSteadyStateAllocs' ./internal/sim ./internal/network
	$(GO) test -race -cpu 1,2,4 -run 'TestAppClassConcurrency' ./internal/harness

## ab: the paired A/B runner a wall-time claim must come from (ROADMAP
## item 3(a)). BASE=<rev> (required) against the working tree, or HEAD=<rev>;
## W=<workload>, or every workload in BENCHMARK.json one after another when W
## is not given; N pairs (default 10). The base is checked out in a git worktree, and each tree's
## benchmark is built and run by its own benchmark/run.sh, at seeds derived
## from the head revision, the first side flipping each pair. Prints per
## metric both medians and quartiles, the pairs the head won, an exact
## two-sided sign-test p and a verdict against the metric's BENCHMARK.json
## bound (gain, worse, unresolved or flat; see cmd/noxbench verdict); fails when the sides of a pair disagree on digest,
## cells, link_flits or paper_gap_pp; writes one nox-ab/v1 record per
## workload, BENCH_<stamp>.json (BENCH_<stamp>-<workload>.json without W;
## refused from a dirty tree unless noxbench is given -allow-dirty).
N ?= 10
ab:
	@test -n "$(BASE)" || { echo "ab: BASE=<rev> is required" >&2; exit 2; }
	$(GO) run ./cmd/noxbench -base '$(BASE)' $(if $(HEAD),-head '$(HEAD)') $(if $(W),-workload '$(W)') -n $(N)

## ab-smoke: the runner end to end on real benchmark output — one A/A pair of
## HEAD against itself on lowload-uniform (two worktree checkouts, two builds
## by their own benchmark/run.sh, the exact-fact guard, the summary), with the
## nox-ab/v1 record written to stdout; ~60 s on 2 CPUs with both builds cold.
ab-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	set -e; \
	$(GO) run $(COVER) ./cmd/noxbench -base HEAD -head HEAD -workload lowload-uniform -n 1 -out - > "$$tmp/ab.txt"; \
	grep -q '"schema": "nox-ab/v1"' "$$tmp/ab.txt" || { echo "ab-smoke: no nox-ab/v1 record" >&2; cat "$$tmp/ab.txt" >&2; exit 1; }; \
	echo "ab-smoke: OK"

## cli-smoke: the tools' flag boundary. Build every tool once, then feed it
## values that once panicked (an empty application trace, a negative shard
## count, a zero-width mesh, a negative measurement window), hung (a one-node
## mesh, which has no destination for uniform traffic), or reported a run the
## tool never did (a 0- or negative-flit packet, a negative
## rate, an invalid fault-campaign network counted as detected faults, a
## campaign or degrade parameter out of range — a run with no cycles, a load
## that is no probability or no bursty rate, a one-node mesh, a negative
## drain, watchdog or warm-up, a negative kill cycle that panicked a worker,
## -csv or -kill without -degrade, a warm start no degrade cell can use; an
## ablation or §8 rate no run can mean or offer, an unknown ablation study, a
## trace run with a negative measurement window, drain limit, ring or
## sampling interval, or a ring past probe.MaxRingEvents, which hung at
## start-up above 2^62 and asked for GBs up front below it; a seed of 0,
## which the synthetic and §8 runs read as unset and replaced by their
## default seed; an application trace so short that a workload has no packet, which printed
## rows of zeros and a mean over the rest, so long that its picosecond
## event times overflow, which ran on past 15 s, or so long that its events
## alone would need tens of GB, refused before any is generated; a NaN
## fault rate, which fired no fault and reported every campaign clean; a zero
## warm-up, measurement or drain window, which ran the library's default
## window instead; a fault spec naming link escalation or dead routers, which the
## fault layer no longer models): each must
## exit with status 1 and a message within 10 s, never a panic trace.
## The tools run in the temp directory, so a regression cannot litter the tree.
cli-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	set -e; \
	$(GO) build $(COVER) -o "$$tmp/" ./cmd/...; \
	cd "$$tmp"; \
	printf '{"seed":11,"drop_rate":0.01,"escalate":{"threshold":3,"window":200}}' > escalate.json; \
	printf '{"seed":4,"dead_routers":[{"router":0}]}' > dead_routers.json; \
	for c in "noxapp -cpu-cycles 0" "noxsim -flits 0" "noxsim -flits -2" \
		"noxsim -rate -5" "noxfault -width 0" "noxfault -shards -1" \
		"noxsweep -shards -1" "noxablate -shards -1" "noxapp -shards -1" "noxfuture -shards -1" \
		"noxtrace -width 0" "noxtrace -width 1 -height 1" "noxsim -measure -100" "noxtrace -rate -1" \
		"noxfault -degrade 2 -kill -5" "noxfault -cycles -10" "noxfault -cycles 0" "noxfault -load -1" \
		"noxfault -load 2" "noxfault -load NaN" "noxfault -multi 2" "noxfault -rtimeout -5" "noxfault -degrade -3" \
		"noxablate -rate -5" "noxablate -rate 1e9" "noxablate -study bogus" "noxfuture -rates -5" "noxfuture -rates NaN" \
		"noxtrace -measure -5" "noxtrace -flits -3" "noxtrace -flits 0" "noxtrace -drain -5" "noxtrace -ring -1" "noxtrace -sample -5" \
		"noxtrace -measure 0" "noxtrace -drain 0" "noxtrace -ring 9223372036854775807" "noxtrace -ring 16777217" \
		"noxfault -degrade 1 -load 0" "noxfault -degrade 1 -load 1" "noxfault -width 1 -height 1" "noxfault -drain -5" \
		"noxfault -watchdog -5" "noxfault -warmstart -5" "noxfault -csv x.csv" "noxfault -kill 5" "noxfault -degrade 2 -warmstart 100" \
		"noxsim -seed 0" "noxsweep -seed 0" "noxtrace -seed 0" "noxfuture -seed 0" \
		"noxapp -cpu-cycles 1" "noxapp -cpu-cycles 100000000000000000 -workload radix" \
		"noxfault -bitflip NaN" "noxfault -drop NaN" "noxfault -stall NaN" "noxfault -creditloss NaN" \
		"noxfault -creditdup NaN" "noxapp -cpu-cycles 1000000000" \
		"noxsim -warmup 0" "noxsim -measure 0" \
		"noxfault -spec escalate.json" "noxfault -spec dead_routers.json"; do \
		st=0; timeout 10 "$$tmp/"$$c >/dev/null 2>"$$tmp/err" || st=$$?; \
		if [ $$st -ne 1 ] || grep -qE '^(panic: |goroutine )' "$$tmp/err"; then \
			echo "cli-smoke: $$c: exit $$st, want 1 without a panic" >&2; cat "$$tmp/err" >&2; exit 1; \
		fi; \
	done; \
	echo "cli-smoke: OK"

## results-check: regenerate all six committed results files, each at its
## tool's defaults — results/table1.txt (noxsim -print-config),
## results/table2_figure13.txt (noxphys -all), results/figures10_11.txt
## (noxapp, ~5 s: every app replay's schedule), results/section8_future.txt
## (noxfuture, ~7 s), results/ablations.txt (noxablate, ~2 s), and
## results/figures8_9_12.txt (noxsweep, ~40 s on 2 vCPUs: one sweep per
## pattern prints both figures, and the uniform sweep's 2000 MB/s/node rung
## prints Figure 12; the sweep walk skips and cancels the cells past each
## series' end, so this also guards that walk's byte-identity) — and require
## each to match the committed file byte for byte. Then one workload's
## replay as CSV (noxapp -workload tpcc -csv), and one fast sweep panel as
## CSV (noxsweep -fast -pattern uniform -csv, ~13 s), must each be
## byte-identical on one worker and on two workers with two shards per
## network. The tools run in
## the temp directory, so a flight dump cannot litter the tree.
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	set -e; \
	$(GO) build $(COVER) -o "$$tmp/" ./cmd/noxsim ./cmd/noxphys ./cmd/noxapp ./cmd/noxfuture ./cmd/noxablate ./cmd/noxsweep; \
	res=$$(pwd)/results; cd "$$tmp"; \
	./noxsim -print-config > table1.txt; \
	./noxphys -all > table2_figure13.txt; \
	./noxapp > figures10_11.txt; \
	./noxfuture > section8_future.txt; \
	./noxablate > ablations.txt; \
	./noxsweep > figures8_9_12.txt; \
	for f in table1.txt table2_figure13.txt figures10_11.txt \
		section8_future.txt ablations.txt figures8_9_12.txt; do cmp "$$res/$$f" "$$f"; done; \
	./noxapp -workload tpcc -csv -parallel 1 > tpcc1.csv; \
	./noxapp -workload tpcc -csv -parallel 2 -shards 2 > tpcc2.csv; \
	cmp tpcc1.csv tpcc2.csv; \
	./noxsweep -fast -pattern uniform -csv -parallel 1 > sweep1.csv; \
	./noxsweep -fast -pattern uniform -csv -parallel 2 -shards 2 > sweep2.csv; \
	cmp sweep1.csv sweep2.csv; \
	echo "results-check: OK"

## trace-smoke: run noxtrace (one probed synthetic cell: the default warm-up,
## 300 measured cycles, the drain) on a tiny mesh and validate that the
## emitted Chrome trace JSON parses and that every CSV exporter produces
## output. (A probed run is serial, so there is no shard count to compare
## across.)
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	set -e; \
	$(GO) build $(COVER) -o "$$tmp/noxtrace" ./cmd/noxtrace; \
	"$$tmp/noxtrace" -arch nox -width 4 -height 4 -rate 2200 -measure 300 \
		-out "$$tmp/trace.json" -waveform "$$tmp/wf.txt" -routers-csv "$$tmp/routers.csv" \
		-heatmap-csv "$$tmp/heat.csv" -timeseries-csv "$$tmp/ts.csv"; \
	"$$tmp/noxtrace" -validate "$$tmp/trace.json"; \
	for f in wf.txt routers.csv heat.csv ts.csv; do \
		test -s "$$tmp/$$f" || { echo "trace-smoke: $$f is empty" >&2; exit 1; }; \
	done; \
	echo "trace-smoke: OK"

## fault-smoke: run a small seeded fault campaign on every architecture
## under the race detector, once serial and once sharded, and require the
## two reports to be byte-identical — the standing proof that fault
## injection (and everything downstream of it) is deterministic and
## shard-invariant. Also fails on any UNDETECTED campaign: an injected
## fault must be caught by the invariant layer or masked by the protocol.
## A second campaign per architecture starts from a warm image with
## retransmission armed and one retry (the one in-memory fork of a warm
## image left, so every router's image is saved and restored here): its drops leave the network idle while timeouts are
## pending (the drain fast-forwards to them), exhaust retries (packets
## retired undeliverable), and its image carries the retransmission state.
## Each run and side runs in its own directory with a relative -flight-dir,
## and the flight dumps the sharded runs write (each replays its campaign
## serially) must be the serial runs', byte for byte.
fault-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	set -e; \
	$(GO) build $(RACE) $(COVER) -o "$$tmp/noxfault" ./cmd/noxfault; \
	for s in 1 4; do \
		mkdir -p "$$tmp/shards$$s/warm"; \
		(cd "$$tmp/shards$$s" && "$$tmp/noxfault" -arch all -width 4 -height 4 -campaigns 2 \
			-cycles 800 -drain 10000 -watchdog 3000 -seed 0xF001 -shards $$s \
			-flight-dir flight -out report.txt); \
		(cd "$$tmp/shards$$s/warm" && "$$tmp/noxfault" -arch all -width 4 -height 4 -campaigns 1 \
			-cycles 600 -warmstart 300 -rtimeout 512 -retries 1 -drop 1e-2 -bitflip 0 -seed 0xF001 -shards $$s \
			-flight-dir flight -out report.txt); \
	done; \
	for d in . warm; do \
		cmp "$$tmp/shards1/$$d/report.txt" "$$tmp/shards4/$$d/report.txt"; \
		{ ! grep -q UNDETECTED "$$tmp/shards1/$$d/report.txt" || { echo "fault-smoke: campaign left faults undetected" >&2; cat "$$tmp/shards1/$$d/report.txt" >&2; exit 1; }; }; \
		(cd "$$tmp/shards1/$$d/flight" 2>/dev/null && ls *.trace.json 2>/dev/null) > "$$tmp/dumps1" || true; \
		(cd "$$tmp/shards4/$$d/flight" 2>/dev/null && ls *.trace.json 2>/dev/null) > "$$tmp/dumps4" || true; \
		test -s "$$tmp/dumps1" || { echo "fault-smoke: no campaign in $$d wrote a flight dump" >&2; exit 1; }; \
		cmp "$$tmp/dumps1" "$$tmp/dumps4" || { echo "fault-smoke: -shards 4 wrote other flight dumps than -shards 1" >&2; exit 1; }; \
		for f in $$(cat "$$tmp/dumps1"); do \
			cmp "$$tmp/shards1/$$d/flight/$$f" "$$tmp/shards4/$$d/flight/$$f" || { echo "fault-smoke: -shards 4 flight dump $$d/$$f differs from -shards 1" >&2; exit 1; }; \
		done; \
	done; \
	echo "fault-smoke: OK"

## fault-perm-smoke: the permanent-fault degradation sweep on every
## architecture under the race detector — a mid-run link kill with
## end-to-end retransmission armed — run serial and sharded, with the two
## reports required byte-identical: the standing proof that hard faults,
## reconfiguration epochs, and retransmission are deterministic across
## execution modes. Also fails on any UNDETECTED cell: every
## loss under a permanent fault must be accounted (delivered or retired
## undeliverable) with zero violations, and the healthy sweep must write no
## flight dump (its kills are the experiment, not a failure). Then a sweep
## that wedges in its drain, serial and sharded, each side in its own
## directory with a relative -flight-dir: it must write flight dumps, and
## the sharded run's must be the serial run's, byte for byte.
fault-perm-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	set -e; \
	$(GO) build $(RACE) $(COVER) -o "$$tmp/noxfault" ./cmd/noxfault; \
	for s in 1 4; do \
		mkdir "$$tmp/shards$$s" "$$tmp/wedged$$s"; \
		(cd "$$tmp/shards$$s" && "$$tmp/noxfault" -arch all -width 4 -height 4 -degrade 2 -kill 400 \
			-cycles 800 -load 0.04 -drain 10000 -watchdog 3000 -seed 0xF001 -shards $$s \
			-flight-dir flight -out report.txt); \
		(cd "$$tmp/wedged$$s" && "$$tmp/noxfault" -arch nox -width 4 -height 4 -degrade 3 -kill 0 \
			-cycles 800 -load 0.3 -drain 200 -watchdog 50 -seed 0xF001 -shards $$s \
			-flight-dir flight -out report.txt); \
	done; \
	cmp "$$tmp/shards1/report.txt" "$$tmp/shards4/report.txt"; \
	{ ! grep -q UNDETECTED "$$tmp/shards1/report.txt" || { echo "fault-perm-smoke: unaccounted loss under permanent faults" >&2; cat "$$tmp/shards1/report.txt" >&2; exit 1; }; }; \
	test ! -e "$$tmp/shards1/flight" || { echo "fault-perm-smoke: the healthy sweep wrote flight dumps" >&2; exit 1; }; \
	cmp "$$tmp/wedged1/report.txt" "$$tmp/wedged4/report.txt"; \
	(cd "$$tmp/wedged1/flight" 2>/dev/null && ls *.trace.json 2>/dev/null) > "$$tmp/dumps1" || true; \
	(cd "$$tmp/wedged4/flight" 2>/dev/null && ls *.trace.json 2>/dev/null) > "$$tmp/dumps4" || true; \
	test -s "$$tmp/dumps1" || { echo "fault-perm-smoke: the wedged sweep wrote no flight dump" >&2; exit 1; }; \
	cmp "$$tmp/dumps1" "$$tmp/dumps4" || { echo "fault-perm-smoke: -shards 4 wrote other flight dumps than -shards 1" >&2; exit 1; }; \
	for f in $$(cat "$$tmp/dumps1"); do \
		cmp "$$tmp/wedged1/flight/$$f" "$$tmp/wedged4/flight/$$f" || { echo "fault-perm-smoke: -shards 4 flight dump $$f differs from -shards 1" >&2; exit 1; }; \
	done; \
	echo "fault-perm-smoke: OK"

## telemetry-smoke: boot noxsim with the live telemetry server on an
## ephemeral port and progress records on stderr, curl the endpoint surface (/metrics, /healthz,
## /debug/vars, /debug/pprof/; /events, the deleted progress stream, must
## answer 404) while the simulation runs, and validate the
## saved /metrics scrape parses as Prometheus text exposition via
## `noxtrace -validate-metrics`. The bound address is scraped from the
## plain "telemetry: serving on http://ADDR" stderr line. The run (about
## 10 s) must then finish with status 0 while serving; it is not killed, so
## a -cover build writes its counters.
telemetry-smoke:
	@tmp=$$(mktemp -d); pid=""; trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	set -e; \
	$(GO) build $(COVER) -o "$$tmp/" ./cmd/noxsim ./cmd/noxtrace; \
	"$$tmp/noxsim" -http 127.0.0.1:0 -progress -measure 1000000 >"$$tmp/stdout.txt" 2>"$$tmp/stderr.txt" & pid=$$!; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's|^telemetry: serving on http://||p' "$$tmp/stderr.txt" 2>/dev/null | head -n 1); \
		if [ -n "$$addr" ]; then break; fi; \
		kill -0 $$pid 2>/dev/null || { echo "telemetry-smoke: noxsim exited before serving" >&2; cat "$$tmp/stderr.txt" >&2; exit 1; }; \
		sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "telemetry-smoke: server never announced its address" >&2; cat "$$tmp/stderr.txt" >&2; exit 1; }; \
	curl -fsS "http://$$addr/metrics" > "$$tmp/metrics.txt"; \
	grep -q '^nox_cycles_total' "$$tmp/metrics.txt" || { echo "telemetry-smoke: /metrics missing nox_cycles_total" >&2; cat "$$tmp/metrics.txt" >&2; exit 1; }; \
	curl -fsS "http://$$addr/healthz" | grep -q '^ok$$'; \
	curl -fsS "http://$$addr/debug/vars" | grep -q '"memstats"'; \
	curl -fsS "http://$$addr/debug/pprof/" > /dev/null; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' "http://$$addr/events"); \
	[ "$$code" = 404 ] || { echo "telemetry-smoke: /events answered $$code, want 404" >&2; exit 1; }; \
	"$$tmp/noxtrace" -validate-metrics "$$tmp/metrics.txt"; \
	st=0; wait $$pid || st=$$?; pid=""; \
	[ $$st -eq 0 ] || { echo "telemetry-smoke: noxsim exited $$st while serving" >&2; cat "$$tmp/stderr.txt" >&2; exit 1; }; \
	echo "telemetry-smoke: OK"

## snapshot-smoke: the image format under the race detector: the committed
## images an earlier commit wrote must restore, re-encode to the same bytes
## and drain as they did there (TestParentImagesRestore). (The in-memory
## fork of a warm image is noxfault's, which fault-smoke's warm campaign runs
## at 1 and 4 shards; the mid-run save/restore seam is pinned by
## TestMidRunSaveRestoreEquivalence, which make race runs.)
snapshot-smoke:
	$(GO) test -race -count=1 -run 'TestParentImagesRestore' ./internal/snapshot
	@echo "snapshot-smoke: OK"

## fuzz-smoke: a short native-fuzz pass over the user-facing decoders
## (noxtrace -validate, noxbench's reader of benchmark run output, the binary snapshot image
## decoder, the JSON fault-campaign spec) and
## the traffic sources' skip-ahead Next, plain and following a skip map,
## against its Tick-loop specification. The committed seed corpora always run under plain
## `go test`; this adds a little coverage-guided mutation on top without
## turning CI into a fuzz farm.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzValidateTrace$$' -fuzztime 10s ./cmd/noxtrace
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnapshot$$' -fuzztime 10s ./cmd/noxbench
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/snapshot
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzNextMatchesTick$$' -fuzztime 10s ./internal/traffic
	$(GO) test -run '^$$' -fuzz '^FuzzSkipMatchesTick$$' -fuzztime 10s ./internal/traffic

## bench-repo-smoke: the repo benchmark (BENCHMARK.json, benchmark/) is a
## nested module, so `go vet`/`go test ./...` from the root never reach it;
## vet it and run its tests here (tiny-scale workloads against the golden
## digests, ~4 s).
bench-repo-smoke:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

## reach: the reachability census. Every tool is built with -cover
## -coverpkg=./... (COVER) and without -race (RACE), and run through the
## smokes' own command lists (REACH_SMOKES) and -version; the repo benchmark
## is built the same way from a copy, so nothing under benchmark/ changes,
## and runs each BENCHMARK.json workload at -scale tiny, plain and with
## -trace 1; tier-1 runs under -coverpkg=./.... It writes reach.txt: one
## sorted row per non-test function no tool enters (the first of benchmark,
## test or none that enters it, the function, its statements), then per
## package its functions by class and non-test lines. Not part of check: it
## takes about 10 min on 2 vCPUs, and check's race run is already near go
## test's timeout.
REACH_SMOKES = results-check cli-smoke trace-smoke fault-smoke fault-perm-smoke telemetry-smoke snapshot-smoke ab-smoke
reach:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	set -e; cov='-cover -coverpkg=./...'; mkdir "$$tmp/tool" "$$tmp/bench" "$$tmp/test"; \
	GOCOVERDIR="$$tmp/tool" $(MAKE) --no-print-directory COVER="$$cov" RACE= $(REACH_SMOKES) >"$$tmp/smokes.log" 2>&1 || \
		{ cat "$$tmp/smokes.log" >&2; exit 1; }; \
	$(GO) build $$cov -o "$$tmp/bin/" ./cmd/...; \
	for t in "$$tmp"/bin/*; do GOCOVERDIR="$$tmp/tool" "$$t" -version >/dev/null; done; \
	cp -R benchmark "$$tmp/"; \
	(cd "$$tmp/benchmark" && $(GO) mod edit -replace repro="$(CURDIR)" && \
		GOFLAGS=-mod=mod $(GO) build -cover -coverpkg=repro/... -o "$$tmp/noxbenchmark" .); \
	for w in $$(sed -n '/"workloads"/,/\]/s/.*"name": "\([^"]*\)".*/\1/p' BENCHMARK.json); do for tr in 0 1; do \
		(cd "$$tmp" && GOCOVERDIR="$$tmp/bench" ./noxbenchmark -workload $$w -scale tiny -seconds 0 -trace $$tr -trace-out t.json >/dev/null); \
	done; done; \
	$(GO) test -count=1 $$cov ./... -args -test.gocoverdir="$$tmp/test" >"$$tmp/test.log" || { cat "$$tmp/test.log" >&2; exit 1; }; \
	for c in tool bench test; do $(GO) tool covdata textfmt -i="$$tmp/$$c" -o "$$tmp/$$c.txt"; done; \
	$(GO) tool covdata func -i="$$tmp/tool,$$tmp/bench,$$tmp/test" >"$$tmp/func.txt"; \
	git ls-files -co --exclude-standard -- '*.go' ':!:*_test.go' ':!:benchmark/*' | xargs wc -l >"$$tmp/lines.txt"; \
	awk 'FILENAME ~ /func.txt$$/ { if ($$1 == "total" || $$1 ~ /^repro\/benchmark\//) next; split($$1, a, ":"); n++; file[n] = a[1]; start[n] = a[2]; name[n] = $$2; of[a[1], ++nf[a[1]]] = n; next } \
	FILENAME ~ /lines.txt$$/ { if ($$2 == "total") next; d = "repro/" $$2; sub(/\/[^\/]*$$/, "", d); lines[d] += $$1; next } \
	/^mode:/ { next } \
	{ src = FILENAME; sub(/.*\//, "", src); split($$1, a, ":"); split(a[2], p, "[.,]"); fn = 0; \
		for (j = 1; j <= nf[a[1]]; j++) { k = of[a[1], j]; if (start[k] + 0 <= p[1] + 0 && start[k] + 0 > start[fn] + 0) fn = k } \
		if (!fn) next; if (!($$1 in seen)) { seen[$$1] = 1; stmts[fn] += $$2 } if ($$3 > 0) hit[fn, src] = 1 } \
	END { sort = "LC_ALL=C sort"; for (i = 1; i <= n; i++) { \
			c = hit[i, "tool.txt"] ? "tool" : hit[i, "bench.txt"] ? "benchmark" : hit[i, "test.txt"] ? "test" : "none"; \
			pkg = file[i]; sub(/\/[^\/]*$$/, "", pkg); nm = name[i]; \
			if (sub(/^\*/, "", nm)) { k = index(nm, "."); nm = "(*" substr(nm, 1, k - 1) ")" substr(nm, k) } \
			cnt[pkg, c]++; cnt[pkg]++; cnt[c]++; if (c != "tool") print c, pkg "." nm, stmts[i] | sort } \
		close(sort); print "package functions tool benchmark test none lines"; \
		for (q in lines) { printf "%s %d %d %d %d %d %d\n", q, cnt[q], cnt[q, "tool"], cnt[q, "benchmark"], cnt[q, "test"], cnt[q, "none"], lines[q] | sort; all += lines[q] } \
		close(sort); printf "total %d %d %d %d %d %d\n", n, cnt["tool"], cnt["benchmark"], cnt["test"], cnt["none"], all }' \
		"$$tmp/func.txt" "$$tmp/lines.txt" "$$tmp/tool.txt" "$$tmp/bench.txt" "$$tmp/test.txt" >reach.txt; \
	echo "reach: wrote reach.txt"
