#!/bin/sh
# Pre-merge gate, one leg per name below. With no argument it runs every
# leg in order; with arguments it runs just those legs:
#
#	sh scripts/check.sh           # the whole gate (`make check`)
#	sh scripts/check.sh decode    # one leg (`make decode`)
#
# The Makefile targets of the same names call this script, so each
# leg's commands live here only. GO and GOFMT name the go and gofmt
# commands and FUZZTIME the time per fuzz target (default 5s); make
# passes its variables of the same names.
set -eux

cd "$(dirname "$0")/.."

GO=${GO:-go}
GOFMT=${GOFMT:-gofmt}
FUZZTIME=${FUZZTIME:-5s}

legs="fmt vet build build-386 fma race alloc sampling progressive decode encode hub serve paper perfbench fuzz-smoke"

leg() {
	case $1 in
	fmt)
		# Assignment first so a failing gofmt itself (missing binary,
		# parse error) aborts under set -e instead of vacuously passing.
		unformatted=$($GOFMT -l .)
		if [ -n "$unformatted" ]; then
			echo "gofmt needed on:"
			echo "$unformatted"
			exit 1
		fi
		;;
	vet)
		$GO vet ./...
		;;
	build)
		$GO build ./...
		;;
	build-386)
		# 32-bit cross-compile gate: int is 32 bits under GOARCH=386, so
		# this catches the width*height-overflow class of bug (hostile
		# image headers can declare ~2^31 per dimension) at compile and
		# vet time.
		GOARCH=386 $GO build ./...
		GOARCH=386 $GO vet ./...
		;;
	fma)
		# Fused multiply-add gate: amd64 never fuses x*y + z into one
		# rounding, but arm64, riscv64, loong64, ppc64le and s390x do,
		# and a fused product there computes other bits. nofma.sh
		# cross-compiles the encoder's float packages (jpegcodec,
		# qtable, core, imgutil) for those five with -gcflags=-S and
		# fails on any fused mnemonic. No emulator is needed.
		# internal/dct is not in the list yet (22 fused ops on arm64).
		sh scripts/nofma.sh
		;;
	race)
		# The whole suite under the race detector, with Go's default
		# timeout of 10 minutes per test binary. The slowest binary is
		# internal/experiments, which trains tiny CNNs: about 270 s of
		# those 600 s alone and up to 340 s inside this leg, on a shared
		# 2-vCPU x86-64 host. A test that adds training there spends
		# this budget.
		$GO test -race ./...
		;;
	alloc)
		# The steady-state AllocsPerRun pins of the batch APIs (root)
		# and of single-image encode and decode (jpegcodec). Every pin
		# skips under -race, which skews allocation counts, so the race
		# leg runs none of them; this leg runs all ten.
		$GO test -count 1 -run 'Allocs|ReusesMetadataBuffers' . ./internal/jpegcodec
		;;
	sampling)
		# Chroma-sampling matrix (4:4:4/4:2:0/4:2:2/4:4:0/4:1:1):
		# stdlib-agreeing decodes, byte-stable sharded requantization
		# and metadata passthrough over every layout.
		$GO test -run 'TestSamplingMatrix|TestRGBIntoMatchesStdlibOn422Family|TestSingleComponentFactorsNormalized|TestSOFBaselineBlocksPerMCULimit|Metadata' ./internal/jpegcodec
		$GO test -run 'TestSubsamplingMatrixInterop|TestRequantizeMetadataPassthroughPublic' .
		;;
	progressive)
		# Progressive JPEG: the scan-script matrix against baseline
		# coefficients, stdlib interop pins, progressive to baseline
		# requantization, the checked-in fixtures, the marker-structure
		# inspector and the server's 415 unsupported_format matrix.
		$GO test -run 'TestProgressive|TestInspect|TestRequantizeProgressive' ./internal/jpegcodec
		$GO test -run 'TestUnsupportedFormatMatrix' ./internal/server
		;;
	decode)
		# Decode read path: the cross-commit verdict pins (pixels,
		# coefficients, accept/reject decisions and error text over
		# seeded mutants of the fixture streams, sequential and sharded)
		# and the oracle tests that hold the lookahead bit reader, the
		# table-driven Huffman decoder, the pixel store's rounding and
		# the one-pass color conversion to the formulations they
		# replaced. The bitio oracles hold the word-wide reader refill
		# and writer stores to byte-at-a-time readers and writers, and
		# TestDecodeBytesAliasOracle holds a slice decode to leaving
		# nothing that refers to its input. The Oracle pattern also runs
		# the encode-side oracles: the one-pass color conversion and
		# chroma subsampling (imgutil), and the quantizer's integer
		# rounding and the integer requantize pass (jpegcodec).
		# TestReconstructRow and TestLazyPixels hold the
		# reconstruction's dispatch on recorded block extents (DC-only
		# fill, prefix dequantize) to the dense per-block reference and
		# to fresh decodes on a reused Decoded. The race leg skips the
		# verdict pins (about 90 s under -race) and the rounding oracle;
		# this leg runs them.
		$GO test -count 1 -run 'TestDecodeVerdictDigests|Oracle|TestReconstructRow|TestLazyPixels' ./internal/jpegcodec ./internal/imgutil ./internal/bitio
		;;
	encode)
		# Encode write path, the decode leg's twin: the cross-commit
		# stream digests (encode and requantize over every layout,
		# restart and Huffman option) and the tests that hold the encode
		# to its references — the fixed-point color conversion and its
		# fused 4:2:0 kernel against the per-pixel float formula and
		# DownsampleInto (every RGB triple, every tie at each box
		# position, the tie values and small sizes of every layout), the
		# fused quantizer and whole forward stage against the per-block
		# path, the squared zero threshold at its edges, the block
		# extents that the quantizer and the requantize walk record
		# against the coefficients they bound, and the extent-bounded
		# emit against the full 63-position scan.
		$GO test -count 1 -run 'TestStreamDigests|TestQuantizeRun|TestTransformComponent|TestRequantize|TestEncodeExtents|TestFromRGBSubsampled' . ./internal/jpegcodec ./internal/imgutil
		;;
	hub)
		# Profile hub: the origin wire protocol, client fault injection
		# (truncation, corruption, retries, origin-down fallback,
		# trust-key rejection), registry lazy fetch and sync, and the
		# two-server fleet scenario. The packages also run inside race;
		# this leg exists for fast, named feedback.
		$GO test ./internal/profilehub
		$GO test -run 'TestRegistryLazyFetch|TestSyncSource|TestWatchSyncs|TestLazyFetchSingleFlight|TestSignature|TestReadSignature|TestGC|TestCompare|TestWriteFileAtomic|TestReadChecksum' ./internal/profile
		$GO test -run 'TestFleet|TestServerHub' ./internal/server
		;;
	serve)
		# The whole internal/server suite (under a second): single
		# routes and /v1/batch against the codec goldens, their parity
		# on the one operation path, error envelopes, tenants, profiles
		# and graceful shutdown. The package also runs inside race.
		$GO test -count 1 ./internal/server
		;;
	paper)
		# Paper numbers: reruns Figs. 2a, 3, 5 and 7 at benchmark scale
		# and holds their headline values (the ones every BENCH_*.json
		# snapshot recorded) to tolerance bands — ±0.02 on compression
		# ratios, one test image on accuracies — so a codec change
		# cannot silently move the source paper's claim. The race leg
		# skips this test; this leg runs it.
		$GO test -count 1 -run '^TestPaperNumbers$' .
		;;
	perfbench)
		# perfbench/ is a module of its own (it replaces repro with this
		# checkout), so ./... never builds it. Vetting and self-testing
		# it here catches an internal API change that would break the
		# benchmark binary. Offline, a few seconds.
		(cd perfbench && $GO vet ./... && $GO test ./...)
		;;
	fuzz-smoke)
		# A few seconds per target over the checked-in corpus plus fresh
		# mutations: catches decoder panics, and the bit reader and
		# writer parting from their byte-at-a-time oracles. go test
		# allows one -fuzz pattern per invocation.
		$GO test -run '^$' -fuzz '^FuzzDecode$' -fuzztime "$FUZZTIME" ./internal/jpegcodec
		$GO test -run '^$' -fuzz '^FuzzDecodeSharded$' -fuzztime "$FUZZTIME" ./internal/jpegcodec
		$GO test -run '^$' -fuzz '^FuzzRequantize$' -fuzztime "$FUZZTIME" ./internal/jpegcodec
		$GO test -run '^$' -fuzz '^FuzzDecodeProgressive$' -fuzztime "$FUZZTIME" ./internal/jpegcodec
		$GO test -run '^$' -fuzz '^FuzzReaderOracle$' -fuzztime "$FUZZTIME" ./internal/bitio
		$GO test -run '^$' -fuzz '^FuzzProfileDecode$' -fuzztime "$FUZZTIME" ./internal/profile
		$GO test -run '^$' -fuzz '^FuzzParseIndex$' -fuzztime "$FUZZTIME" ./internal/profilehub
		;;
	*)
		echo "check.sh: unknown leg $1 (have: $legs)" >&2
		exit 2
		;;
	esac
}

if [ $# -eq 0 ]; then
	set -- $legs
fi
for l in "$@"; do
	leg "$l"
done
