#!/bin/sh
# Tier-1 verification gate for the EcoCapsule repository.
#
# Runs the full correctness stack: compile, go vet, gofmt over the
# non-fixture Go files, the domain-aware ecolint static-analysis suite
# (internal/analysis) over the whole module including _test.go files, the
# benchmark module's own tests, the tests under the race detector, the
# determinism tests at GOMAXPROCS 1, 2 and 4, and a short fuzzing smoke
# pass over the untrusted-input decoders. CI and pre-merge checks should
# invoke this script; every step must pass.
#
# Each stage reports its wall-clock seconds as "[stage NNs]". A failing
# command aborts the script immediately (set -e) and the EXIT trap names
# the stage that died, so a mid-stage failure can never masquerade as a
# later stage's timing noise.
#
# Usage:
#   ./verify.sh          full gate (including the fuzz smoke)
#   ./verify.sh -short   fast inner loop: -short tests, no race, no fuzz
set -eu
cd "$(dirname "$0")"

SHORT=0
if [ "${1:-}" = "-short" ]; then
	SHORT=1
fi

# now_ms: monotonic-enough wall clock in milliseconds (portable sh).
now_ms() {
	date +%s%3N 2>/dev/null | grep -q N && date +%s000 || date +%s%3N
}

STAGE_T0=0
CURRENT_STAGE=""
VERIFY_DONE=0
on_exit() {
	_rc=$?
	if [ "$VERIFY_DONE" != 1 ]; then
		if [ -n "$CURRENT_STAGE" ]; then
			echo "verify.sh: FAILED in stage \"$CURRENT_STAGE\" (exit $_rc)" >&2
		else
			echo "verify.sh: FAILED before the first stage (exit $_rc)" >&2
		fi
	fi
}
trap on_exit EXIT

stage() {
	STAGE_T0="$(now_ms)"
	CURRENT_STAGE="$*"
	echo "== $*"
}
stage_done() {
	_t1="$(now_ms)"
	_dt=$(( _t1 - STAGE_T0 ))
	echo "   [stage $(( _dt / 1000 )).$(printf %03d $(( _dt % 1000 )))s]"
	CURRENT_STAGE=""
}

stage "go build ./..."
go build ./...
stage_done

# go vet is also the lock-copy gate: its copylocks pass reports every
# sync.Mutex/sync.RWMutex copied by value (parameters, receivers, range
# variables, assignments, returns, call arguments). ecolint does not
# re-check it; TestGoVetOwnsLockCopies pins the cases.
stage "go vet ./..."
go vet ./...
stage_done

# gofmt over every Go file outside testdata. The analyzer fixtures under
# internal/analysis/testdata are left out: their golden `// want`
# comments pin line and column positions that reformatting would move.
stage "gofmt -l (non-testdata Go files)"
UNFORMATTED="$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' -print | xargs gofmt -l)"
if [ -n "$UNFORMATTED" ]; then
	echo "verify.sh: files need gofmt:"
	echo "$UNFORMATTED"
	exit 1
fi
stage_done

# The link's operating point is named once, as physics.CarrierHz. A
# non-test Go file that spells the 230 kHz carrier again fails here.
# material keeps two measured 230 kHz values (UHPC's resonance and the
# frequency of the catalog's attenuation figures); the analyzer fixtures
# and the benchmark module keep their own copies.
stage "carrier named once (physics.CarrierHz)"
CARRIER_COPIES="$(find . -name '*.go' -not -name '*_test.go' \
	-not -path './internal/physics/*' -not -path './internal/material/*' \
	-not -path './internal/analysis/testdata/*' -not -path './pipebench/*' \
	-not -path './.bench_build/*' -print | xargs grep -nE '230 ?\* ?units\.KHz|230e3' || true)"
if [ -n "$CARRIER_COPIES" ]; then
	echo "verify.sh: the carrier is spelled outside physics.CarrierHz:"
	echo "$CARRIER_COPIES"
	exit 1
fi
stage_done

# ecolint over everything, test files included, in one in-memory pass:
# self-cleanliness is a hard gate. The full suite of 10 analyzers — the
# lock analyzers locksafety (early-return leaks), guardedby and
# closurecapture on one CFG lock-set engine, atomicmix, dimcheck
# (dimensional analysis and bare unit multipliers) and hotalloc (hotpath
# allocation discipline) among them — gates the tree; any finding fails
# the build, and so does an ignore directive that suppresses nothing.
# cmd/ecolint's TestListRoster, run by the race stage below, pins which
# analyzers the suite holds.
stage "ecolint -include-tests ./..."
go build -o /tmp/ecolint.verify ./cmd/ecolint
/tmp/ecolint.verify -include-tests ./...
stage_done

# The benchmark is its own module (pipebench/go.mod): its determinism and
# statistics tests run with the environment pipebench/run.sh builds it
# under, so a change that breaks what the benchmark measures fails here.
stage "pipebench tests (go -C pipebench test ./...)"
GOWORK=off GOPROXY=off GOFLAGS= go -C pipebench test ./...
stage_done

if [ "$SHORT" = 1 ]; then
	stage "go test -short ./..."
	go test -short ./...
	stage_done
	VERIFY_DONE=1
	echo "verify.sh: short gates passed (fuzz smoke and race detector skipped)"
	exit 0
fi

# The keyed selection: every test whose name matches runs under the race
# detector at GOMAXPROCS 1, 2 and 4 (and at this host's processor count),
# twice each, in the keyed determinism stage below. The race stage skips
# it, so each race configuration runs once.
KEYED_RE='Invariance|Keyed|Determinis|Churn|UnderKill|Concurrent|BitIdentical|DecodeOutcomes|BERParity|Decimat'
KEYED_CPUS=1,2,4
case ",$KEYED_CPUS," in
*",$(nproc),"*) ;;
*) KEYED_CPUS="$KEYED_CPUS,$(nproc)" ;;
esac

stage "go test -race ./... (keyed selection skipped)"
go test -race -skip "$KEYED_RE" ./...
stage_done

# Determinism contract at several GOMAXPROCS values, in one pass over the
# module: every test in the keyed selection runs, wherever it lives.
# Fault draws and span IDs are keyed per capsule, and every seeded noise
# stream is a keyrand counter stream that depends on its seed alone, so the
# fleet's one (parallel) schedule must render byte-identical reports and
# span trees at any shard count and processor count, faults and tracing
# included — from survey through broadcast to subscriber receipt. The pool
# itself (conc.Queues) must hand every item to exactly one body on every
# queue shape production uses. The waveform round fans its link transmits
# out over the pool and its FFT kernel fuses stages; both must stay
# bit-identical to the serial, one-stage-per-pass results. The decimating
# receive front end must decode the same outcomes (the reader's golden
# corpus), keep its kept-index filter bound and its BER parity with the
# full-rate oracle at every processor count. The fleet's churn tests kill
# and revive stations while surveys and reads run, against its one route
# lock, and the concurrency tests share nodes, caches, decoders, the
# scratch free lists and the flight recorder across goroutines. The
# reconnecting-subscriber session test (50 clients, scheduled session
# bounces, one snapshot resync per bounce) must count its closed-form
# reconnects and resyncs and leave no goroutine behind at every
# processor count.
stage "keyed determinism (-race -count=2 -cpu $KEYED_CPUS)"
go test -race -count=2 -cpu "$KEYED_CPUS" -run "$KEYED_RE" ./...
stage_done

# One non-race stage for what the race build above cannot measure: the
# allocation bounds and the coverage floor.
#
# Cross-check: the hotalloc lint and the runtime AllocsPerRun tests must
# agree on the warm decode path (TestDemodulateSlotsAllocs: a warm k-slot
# DemodulateSlots allocates its result slice and one payload copy per
# decoded slot, nothing else) and that the fault-free read path (capsule
# reply → reader parse/decode → survey row, and broadcast → subscriber
# writer → Client.Next) is allocation-free. The lint half is the ecolint
# stage above: it proves every control-flow path of every
# //ecolint:hotpath function in the tree, and TestListRoster proves
# hotalloc ran there. This stage is the measuring half: the
# AllocsPerRun tests on real inputs (TestReadSensorAllocs pins the one
# object the public []float64 read API still costs). A clean lint with a
# failing test means the analyzer went blind; either failing means the
# invariant is gone and the gate fails. The fleet's survey-wide test
# (TestSurveyAllocsDoNotScaleWithCapsules: a warm survey allocates its
# report rows and otherwise the same few objects at 300 and 3000
# capsules) and its heap bound (TestCityFleetLiveHeap: a warm
# 3000-capsule city fleet holds at most 8 MB of live heap, because its
# links keep a gain and build no waveform channel) run here, since the
# race build leaves them out. The reader's waveform round
# (TestAcousticRoundAllocs: a warm 3-slot round on the common wall at
# 2 kbps allocates at most 64 KB, its capture, slot waveforms and decoder
# scratch all recycled) runs here too.
#
# Coverage floor over the uplink fast-path packages: the RFFT plan cache,
# the sparse convolver's blocked direct kernel and the decimating front-end
# kernels (internal/dsp), the per-link channel cache (internal/channel) and
# the batched round reader (internal/reader) carry equivalence batteries
# that must actually exercise the code they guard. Any of the three
# dipping under 75% statement coverage fails the gate. Their whole suites
# run here, alloc tests included, so dsp and reader need no -run of their
# own; the other packages run only their alloc tests. -count=1 keeps the
# alloc tests from being answered by the test cache.
stage "allocation bounds and coverage floor (dsp, channel, reader >= 75%)"
go test -count=1 -run 'ZeroAlloc|SlotsAllocs|SurveyAllocs|CityFleetLiveHeap' ./internal/phy ./internal/coding \
	./internal/fleet ./internal/shmwire
# Capture the status too: under set -e a bare COV_OUT="$(...)" would exit
# on a failing test before the captured output is ever printed.
COV_RC=0
COV_OUT="$(go test -count=1 -cover ./internal/dsp ./internal/channel ./internal/reader)" || COV_RC=$?
echo "$COV_OUT" | sed 's/^/   /'
if [ "$COV_RC" -ne 0 ]; then
	echo "verify.sh: go test -cover failed (exit $COV_RC)"
	exit "$COV_RC"
fi
echo "$COV_OUT" | while IFS= read -r line; do
	pct="$(printf '%s\n' "$line" | sed -n 's/.*coverage: \([0-9]*\)\.[0-9]*% of statements.*/\1/p')"
	if [ -z "$pct" ]; then
		echo "verify.sh: no coverage figure in: $line"
		exit 1
	fi
	if [ "$pct" -lt 75 ]; then
		echo "verify.sh: coverage below 75% floor: $line"
		exit 1
	fi
done
stage_done

# Telemetry smoke: boot shmserver with the metrics endpoint on an
# ephemeral port, scrape /metrics and /healthz once, and require a healthy
# spread of metric families (the self-test survey populates reader, fleet,
# shmwire and faultinject series before the first scrape).
stage "telemetry smoke (/metrics + /healthz)"
SMOKE_DIR="$(mktemp -d)"
cleanup_smoke() {
	[ -n "${SMOKE_PID:-}" ] && kill "$SMOKE_PID" 2>/dev/null || true
	[ -n "${SMOKE_PID:-}" ] && wait "$SMOKE_PID" 2>/dev/null || true
	rm -rf "$SMOKE_DIR"
}
go build -o "$SMOKE_DIR/shmserver" ./cmd/shmserver
"$SMOKE_DIR/shmserver" -listen 127.0.0.1:0 -telemetry-addr 127.0.0.1:0 \
	-speedup 3600000 -hours 8760 >"$SMOKE_DIR/log" 2>&1 &
SMOKE_PID=$!
TELEMETRY_URL=""
i=0
while [ "$i" -lt 50 ]; do
	TELEMETRY_URL="$(sed -n 's|^shmserver: telemetry on \(http://[^ ]*\)/metrics$|\1|p' "$SMOKE_DIR/log")"
	[ -n "$TELEMETRY_URL" ] && break
	sleep 0.2
	i=$((i + 1))
done
if [ -z "$TELEMETRY_URL" ]; then
	echo "verify.sh: telemetry endpoint never came up:"
	cat "$SMOKE_DIR/log"
	cleanup_smoke
	exit 1
fi
FAMILIES="$(curl -sf "$TELEMETRY_URL/metrics" | grep -c '^# TYPE' || true)"
if [ "${FAMILIES:-0}" -lt 20 ]; then
	echo "verify.sh: /metrics exposed only ${FAMILIES:-0} metric families (want >= 20)"
	cleanup_smoke
	exit 1
fi
if ! curl -sf "$TELEMETRY_URL/healthz" | grep -q '"status"'; then
	echo "verify.sh: /healthz did not return a status report"
	cleanup_smoke
	exit 1
fi
# The black box must be serving and already hold events from the self-test
# survey's injected faults (faultinject/reader subsystems record there).
if ! curl -sf "$TELEMETRY_URL/debug/flightrecorder" | grep -q '^subsystem '; then
	echo "verify.sh: /debug/flightrecorder served no recorded events"
	cleanup_smoke
	exit 1
fi
cleanup_smoke
echo "   $FAMILIES metric families exposed; /healthz healthy; flight recorder live"
stage_done

# Fuzz smoke: each decoder target — the line codes, the shmwire frame
# reader over back-to-back frames, the capsule-side uplink and downlink
# parsers — the table-driven CRC-16 against its bitwise oracle, the
# receive front end's fused mix-decimate against the chunked mix plus the
# decimating oracle (bit for bit), AddAWGN's inline ziggurat against
# math/rand/v2's NormFloat64 stream (bit for bit), and the sparse
# convolver's blocked direct kernel against its tap-by-tap oracle (bit for
# bit) and against the dense Convolve oracle, fuzzes for a few seconds. Any
# panic or property violation fails the gate; new corpus findings are kept
# by go test under the package's testdata/fuzz directory.
FUZZTIME="${FUZZTIME:-5s}"
stage "fuzz smoke (${FUZZTIME} per target)"
go test -run='^$' -fuzz='^FuzzDecodeFM0$' -fuzztime="$FUZZTIME" ./internal/coding
go test -run='^$' -fuzz='^FuzzDecodeMiller$' -fuzztime="$FUZZTIME" ./internal/coding
go test -run='^$' -fuzz='^FuzzDecodePIE$' -fuzztime="$FUZZTIME" ./internal/coding
go test -run='^$' -fuzz='^FuzzCRC16$' -fuzztime="$FUZZTIME" ./internal/coding
go test -run='^$' -fuzz='^FuzzReadFrame$' -fuzztime="$FUZZTIME" ./internal/shmwire
go test -run='^$' -fuzz='^FuzzUnmarshalUplink$' -fuzztime="$FUZZTIME" ./internal/protocol
go test -run='^$' -fuzz='^FuzzUnmarshal$' -fuzztime="$FUZZTIME" ./internal/protocol
go test -run='^$' -fuzz='^FuzzMixDecimate$' -fuzztime="$FUZZTIME" ./internal/dsp
go test -run='^$' -fuzz='^FuzzAddAWGN$' -fuzztime="$FUZZTIME" ./internal/dsp
go test -run='^$' -fuzz='^FuzzSparseConvolver$' -fuzztime="$FUZZTIME" ./internal/dsp
stage_done

# Bench smoke: regenerate the hot-path micro-benchmark matrix and the 1k
# city-fleet survey tier and gate every entry against the committed
# BENCH.json baseline at matching GOMAXPROCS (>20% slower fails: the
# channel's convolution, the decode path, a warm round on a built link,
# the survey fan-out or the spatial partitioning regressed). The 10k/100k
# tiers and the flat-registry comparator run with -full only (minutes).
stage "bench smoke (ecobench -json vs BENCH.json)"
go run ./cmd/ecobench -json -baseline BENCH.json > /tmp/ecobench_bench_last.json
stage_done

VERIFY_DONE=1
echo "verify.sh: all gates passed"
