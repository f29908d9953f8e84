# Developer entry points for the DeepN-JPEG reproduction.
#
#   make check        # gofmt gate + vet + build + 386 build + fused multiply-add gate + race suite + allocation pins + sampling matrix + progressive leg + decode pins + encode pins + hub suite + server suite + paper numbers + perfbench + fuzz smoke
#   make paper        # the paper's Fig 2a/3/5/7 headline values as tolerance bands
#   make perfbench    # vet + self-tests of the perfbench module
#   make test         # plain test run (what tier-1 verification executes)
#   make test-amd64v3 # build+test under GOAMD64=v3 (AVX2-era codegen)
#   make fma          # no fused multiply-add in the encoder's float packages on arm64/riscv64/loong64/ppc64le/s390x
#   make bench        # DCT/codec/pipeline benchmarks with allocation reporting
#   make bench-txt    # repeated-count text snapshot → $(NEW)
#   make bench-json   # full benchmark sweep → BENCH_$(PR).json (perf trajectory)
#   make serve-bench  # requests/sec through the HTTP endpoints + per-route handler cost
#   make fuzz-smoke   # short native-fuzz run of the decode/requantize/bit-reader/profile fuzzers

GO ?= go
GOFMT ?= gofmt
FUZZTIME ?= 5s
# PR tags the benchmark snapshot file (BENCH_$(PR).json); set it to the
# PR number when recording a data point, e.g. `make bench-json PR=4`.
PR ?= dev

.PHONY: check fmt vet build build-386 fma test test-amd64v3 race alloc sampling progressive decode encode hub serve paper perfbench bench bench-txt bench-json serve-bench fuzz-smoke

check: fmt vet build build-386 fma race alloc sampling progressive decode encode hub serve paper perfbench fuzz-smoke

fmt:
	@out="$$($(GOFMT) -l .)" || exit 1; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# 32-bit cross-compile gate: int is 32 bits under GOARCH=386, so this
# catches the width*height-overflow class of bug (hostile image headers
# can declare ~2^31 per dimension) at compile/vet time on every check.
build-386:
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) vet ./...

# Fused multiply-add gate: amd64 never fuses x*y + z into one rounding,
# but arm64, riscv64, loong64, ppc64le and s390x do, and a fused product
# there computes other bits. scripts/nofma.sh cross-compiles the
# encoder's float packages (jpegcodec, qtable, core, imgutil) for those
# five with -gcflags=-S and fails on any fused mnemonic. No emulator is
# needed. internal/dct is not in the list yet (22 fused ops on arm64).
fma:
	sh scripts/nofma.sh

test:
	$(GO) test ./...

# GOAMD64=v3 leg: the batch DCT/quantize kernels are flat float64 loops
# whose lowering changes with the microarchitecture level (v3 unlocks
# AVX/AVX2-era instruction selection). Building AND running the suite at
# v3 pins the bit-level contracts — flat kernels vs the strided
# reference butterflies, coded coefficients vs the textbook DCT, the
# checked-in stream and decode-verdict digests — under the alternate
# codegen, not just under the default v1. Requires an AVX2-capable host (any x86-64-v3
# machine; CI runners are).
test-amd64v3:
	GOAMD64=v3 $(GO) build ./...
	GOAMD64=v3 $(GO) test ./...

# Race leg: the whole suite under the race detector, with Go's default
# timeout of 10 minutes per test binary. The slowest binary is
# internal/experiments, which trains tiny CNNs: about 290 s of those
# 600 s alone and up to 320 s inside this leg, on a shared 2-vCPU x86-64
# host. A test that adds training there spends this budget.
race:
	$(GO) test -race ./...

# Allocation gate: the steady-state AllocsPerRun pins of the batch APIs
# (root) and of single-image encode and decode (jpegcodec). Every pin
# skips under -race, which skews allocation counts, so the race leg
# runs none of them; this leg runs all ten.
alloc:
	$(GO) test -count 1 -run 'Allocs|ReusesMetadataBuffers' . ./internal/jpegcodec

# Chroma-sampling matrix gate: runs the table-driven layout suite
# (4:4:4/4:2:0/4:2:2/4:4:0/4:1:1) — stdlib-agreeing decodes, byte-stable
# sharded requantization, metadata passthrough — as its own named leg so
# a sampling regression is attributable at a glance.
sampling:
	$(GO) test -run 'TestSamplingMatrix|TestRGBIntoMatchesStdlibOn422Family|TestSingleComponentFactorsNormalized|TestSOFBaselineBlocksPerMCULimit|Metadata' ./internal/jpegcodec
	$(GO) test -run 'TestSubsamplingMatrixInterop|TestRequantizeMetadataPassthroughPublic' .

# Progressive-JPEG gate: the multi-scan decode path as its own named
# leg — scan-script matrix vs baseline coefficients, stdlib interop
# pins, progressive→baseline requantization, checked-in fixtures, the
# marker-structure inspector, and the server's 415 unsupported_format
# classification — so a progressive regression is attributable at a
# glance.
progressive:
	$(GO) test -run 'TestProgressive|TestInspect|TestRequantizeProgressive' ./internal/jpegcodec
	$(GO) test -run 'TestUnsupportedFormatMatrix' ./internal/server

# Decode read-path gate: the cross-commit verdict pins (pixels,
# coefficients, accept/reject decisions and error text over seeded
# mutants of the fixture streams, sequential and sharded) and the oracle
# tests that hold the lookahead bit reader, the table-driven Huffman
# decoder, the pixel store's rounding and the one-pass color conversion
# to the formulations they replaced — as their own named leg, so a
# decode regression is attributable at a glance. The bitio oracles hold
# the word-wide reader refill and writer stores to byte-at-a-time
# readers and writers, and TestDecodeBytesAliasOracle holds a slice
# decode to leaving nothing that refers to its input. The Oracle pattern also
# runs the encode-side oracles: the one-pass color conversion and chroma
# subsampling (imgutil), and the quantizer's integer rounding and the
# integer requantize pass (jpegcodec). TestReconstructRow and
# TestLazyPixels hold the reconstruction's dispatch on recorded block
# extents (DC-only fill, prefix dequantize) to the dense per-block
# reference and to fresh decodes on a reused Decoded. The race leg skips
# the verdict pins (about 90 s under -race) and the rounding oracle;
# this leg runs them.
decode:
	$(GO) test -count 1 -run 'TestDecodeVerdictDigests|Oracle|TestReconstructRow|TestLazyPixels' ./internal/jpegcodec ./internal/imgutil ./internal/bitio

# Encode write-path gate, the decode leg's twin: the cross-commit
# stream digests (encode and requantize over every layout, restart and
# Huffman option) and the tests that hold the encode to its references —
# the fixed-point color conversion and its fused 4:2:0 kernel against the
# per-pixel float formula and DownsampleInto (every RGB triple, every
# tie at each box position, the tie values and small sizes of every
# layout), the fused quantizer and whole forward stage against the
# per-block path, the squared zero threshold at its edges, the block
# extents that the quantizer and the requantize walk record against the
# coefficients they bound, and the extent-bounded emit against the full
# 63-position scan — as their own named leg, so an encode regression is
# attributable at a glance.
encode:
	$(GO) test -count 1 -run 'TestStreamDigests|TestQuantizeRun|TestTransformComponent|TestRequantize|TestEncodeExtents|TestFromRGBSubsampled' . ./internal/jpegcodec ./internal/imgutil

# Profile-hub gate: the whole distribution loop as its own named leg —
# origin wire protocol, client fault injection (truncation, corruption,
# retries, origin-down fallback, trust-key rejection), registry lazy
# fetch/sync, and the two-server fleet scenario — so a hub regression is
# attributable at a glance. The packages also run inside `race`; this
# leg exists for fast, named feedback.
hub:
	$(GO) test ./internal/profilehub
	$(GO) test -run 'TestRegistryLazyFetch|TestSyncSource|TestWatchSyncs|TestLazyFetchSingleFlight|TestSignature|TestReadSignature|TestGC|TestCompare|TestWriteFileAtomic|TestReadChecksum' ./internal/profile
	$(GO) test -run 'TestFleet|TestServerHub' ./internal/server

# HTTP-server gate: the whole internal/server suite (under a second) —
# single routes and /v1/batch against the codec goldens, their parity on
# the one operation path, error envelopes, tenants, profiles and
# graceful shutdown — as its own named leg, so a server regression is
# attributable at a glance. The package also runs inside `race`.
serve:
	$(GO) test -count 1 ./internal/server

# Paper-numbers gate: reruns Figs. 2a, 3, 5 and 7 at benchmark scale
# and holds their headline values (the ones every BENCH_*.json snapshot
# recorded) to tolerance bands — ±0.02 on compression ratios, one test
# image on accuracies — so a codec change cannot silently move the
# source paper's claim. The race leg skips this test; this leg runs it.
paper:
	$(GO) test -count 1 -run '^TestPaperNumbers$$' .

# Benchmark-harness gate: perfbench/ is a module of its own (it replaces
# repro with this checkout), so ./... above never builds it. Vetting and
# self-testing it here is what catches an internal API change that would
# break the benchmark binary. Offline, a few seconds.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Native-fuzz smoke leg: a few seconds per target over the checked-in
# corpus plus fresh mutations — catches decoder panics, and the bit
# reader and writer parting from their byte-at-a-time oracles, before CI
# does a long run. go test only allows one -fuzz pattern per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/jpegcodec
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSharded$$' -fuzztime $(FUZZTIME) ./internal/jpegcodec
	$(GO) test -run '^$$' -fuzz '^FuzzRequantize$$' -fuzztime $(FUZZTIME) ./internal/jpegcodec
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeProgressive$$' -fuzztime $(FUZZTIME) ./internal/jpegcodec
	$(GO) test -run '^$$' -fuzz '^FuzzReaderOracle$$' -fuzztime $(FUZZTIME) ./internal/bitio
	$(GO) test -run '^$$' -fuzz '^FuzzProfileDecode$$' -fuzztime $(FUZZTIME) ./internal/profile
	$(GO) test -run '^$$' -fuzz '^FuzzParseIndex$$' -fuzztime $(FUZZTIME) ./internal/profilehub

bench:
	$(GO) test -run XXX -bench 'Transform|Batch' -benchmem ./internal/dct
	$(GO) test -run XXX -bench 'Transform|DecodePooled|EncodeStages|DecodeStages|RequantizeStages|EncodeRGB420|DecodeRGB420|Decode422|Requantize422|DecodeProgressive|RequantizeProgressive' -benchmem ./internal/jpegcodec
	$(GO) test -run XXX -bench 'EncodeBatch|DecodeBatch|CalibrateParallel|DeepNEncodeThroughput' -benchmem ./
	$(GO) test -run XXX -bench 'Index|BlobVerify|PullCacheHit' -benchmem ./internal/profilehub

# bench-txt records a repeated-count text snapshot of the hot-path
# benchmarks: run it before and after a change (NEW=bench-old.txt for
# the first) and compare the two files. BENCHCOUNT=10 gives enough
# samples per benchmark to see the spread, not just a point estimate.
NEW ?= bench-new.txt
BENCHCOUNT ?= 10
bench-txt:
	$(GO) test -run XXX -bench 'Transform|Batch|EncodeStages|DecodeStages|RequantizeStages' -benchmem -count $(BENCHCOUNT) ./internal/dct ./internal/jpegcodec > $(NEW)
	@echo "wrote $(NEW)"

# bench-json records the full benchmark sweep as a machine-readable
# snapshot (BENCH_$(PR).json) so per-PR performance is diffable across
# the repository's history. The sweep and the conversion run as separate
# commands (no pipe) so a failing benchmark fails the target instead of
# silently producing a truncated snapshot. The second leg re-runs the
# single-image restart-sharding benchmarks under a -cpu 1,4,8 sweep so
# the snapshot captures how sharded encode/decode scales with cores.
bench-json:
	$(GO) test -run XXX -bench . -benchmem ./... > BENCH_$(PR).txt
	$(GO) test -run XXX -bench Sharded -benchmem -cpu 1,4,8 ./internal/jpegcodec >> BENCH_$(PR).txt
	$(GO) run ./scripts/bench2json < BENCH_$(PR).txt > BENCH_$(PR).json
	@rm -f BENCH_$(PR).txt
	@echo "wrote BENCH_$(PR).json"

serve-bench:
	$(GO) test -run XXX -bench 'ServeBatchEncode|ServeEncodeSingle|ServeRoutes' -benchmem ./internal/server
