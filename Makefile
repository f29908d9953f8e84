# Developer entry points for the DeepN-JPEG reproduction.
#
#   make check        # sh scripts/check.sh: gofmt gate + vet + build + 386 build + fused multiply-add gate + race suite + allocation pins + sampling matrix + progressive leg + decode pins + encode pins + hub suite + server suite + paper numbers + perfbench + fuzz smoke
#   make <leg>        # one leg of check, e.g. make decode (sh scripts/check.sh decode)
#   make paper        # the paper's Fig 2a/3/5/7 headline values as tolerance bands
#   make perfbench    # vet + self-tests of the perfbench module
#   make test         # plain test run (what tier-1 verification executes)
#   make test-amd64v3 # build+test under GOAMD64=v3 (AVX2-era codegen)
#   make fma          # no fused multiply-add in the encoder's float packages on arm64/riscv64/loong64/ppc64le/s390x
#   make bench        # DCT/codec/pipeline benchmarks with allocation reporting
#   make bench-txt    # repeated-count text snapshot → $(NEW)
#   make bench-json   # full benchmark sweep → BENCH_$(PR).json (a point snapshot; perfbench/run.sh is the end-to-end trajectory)
#   make serve-bench  # requests/sec through the HTTP endpoints + per-route handler cost
#   make fuzz-smoke   # short native-fuzz run of the decode/requantize/bit-reader/profile/raw-image fuzzers

GO ?= go
GOFMT ?= gofmt
FUZZTIME ?= 5s
# PR tags the benchmark snapshot file (BENCH_$(PR).json); set it to the
# PR number when recording a data point, e.g. `make bench-json PR=4`.
PR ?= dev

# Every leg of `make check` is defined once, in scripts/check.sh; the
# targets below only name them. make passes GO, GOFMT and FUZZTIME on.
export GO GOFMT FUZZTIME
CHECK_LEGS = fmt vet build build-386 fma race alloc sampling progressive decode encode hub serve paper perfbench fuzz-smoke

.PHONY: check $(CHECK_LEGS) test test-amd64v3 bench bench-txt bench-json serve-bench

check:
	sh scripts/check.sh

$(CHECK_LEGS):
	sh scripts/check.sh $@

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
# snapshot (BENCH_$(PR).json). Nothing compares these snapshots: the
# end-to-end performance trajectory is perfbench/run.sh over the workloads
# BENCHMARK.json declares. The sweep and the conversion run as separate
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
