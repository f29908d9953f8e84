#!/bin/sh
# Full pre-merge gate: gofmt, vet, build, the 32-bit build, the fused
# multiply-add gate, the complete test suite under the race detector, the allocation pins, the chroma-sampling matrix, the
# progressive-JPEG leg, the decode verdict pins and the decode and encode
# kernel oracles, the encode stream digests and sparse-encode tests, the
# profile-hub leg, the HTTP server suite, the
# paper-numbers bands, the perfbench module, and a short native-fuzz
# smoke of the decoder, requantizer, bit reader and profile format. Runs
# the legs of `make check`, in its order, for environments without make.
set -eux

cd "$(dirname "$0")/.."

# Assignment first so a failing gofmt itself (missing binary, parse
# error) aborts under set -e instead of vacuously passing the gate.
unformatted=$(gofmt -l .)
test -z "$unformatted"
go vet ./...
go build ./...
# 32-bit cross-compile gate (catches int-overflow bugs like the PNG
# width*height pixel-cap bypass).
GOARCH=386 go build ./...
GOARCH=386 go vet ./...
# No fused multiply-add in the encoder's float packages on the
# architectures that fuse (cross-compiled with -gcflags=-S).
sh scripts/nofma.sh
# The complete suite under the race detector, with Go's default timeout
# of 10 minutes per test binary. internal/experiments, which trains tiny
# CNNs, is the slowest: about 290 s of those 600 s alone and up to 320 s
# inside this run, on a shared 2-vCPU x86-64 host. A test that adds
# training there spends this budget.
go test -race ./...
# Allocation pins (all skip under -race): steady-state AllocsPerRun of
# the batch APIs and of single-image encode and decode.
go test -count 1 -run 'Allocs|ReusesMetadataBuffers' . ./internal/jpegcodec
# Chroma-sampling matrix: stdlib-agreeing decodes, byte-stable sharded
# requantization and metadata passthrough over every layout.
go test -run 'TestSamplingMatrix|TestRGBIntoMatchesStdlibOn422Family|TestSingleComponentFactorsNormalized|TestSOFBaselineBlocksPerMCULimit|Metadata' ./internal/jpegcodec
go test -run 'TestSubsamplingMatrixInterop|TestRequantizeMetadataPassthroughPublic' .
# Progressive JPEG: scan-script matrix, stdlib interop, progressive to
# baseline requantization, the inspector and the server's 415 matrix.
go test -run 'TestProgressive|TestInspect|TestRequantizeProgressive' ./internal/jpegcodec
go test -run 'TestUnsupportedFormatMatrix' ./internal/server
# Decode read path (the verdict pins skip under -race): cross-commit
# pixel/coefficient/error pins and the kernel oracles — decode side, and
# on the encode side the one-pass color conversion and chroma
# subsampling and the quantizer's integer rounding (which also skips
# under -race) — plus the reconstruction's dispatch on recorded block
# extents against the dense reference and on a reused Decoded.
go test -count 1 -run 'TestDecodeVerdictDigests|Oracle|TestReconstructRow|TestLazyPixels' ./internal/jpegcodec ./internal/imgutil ./internal/bitio
# Encode write path: the stream digests, the fixed-point color
# conversion and its fused 4:2:0 kernel against the float formula, the
# fused quantizer and its squared zero threshold against the per-block
# reference, and the block extents the quantizer and the requantize walk
# record, with the emit bounded by them against the full scan.
go test -count 1 -run 'TestStreamDigests|TestQuantizeRun|TestTransformComponent|TestRequantize|TestEncodeExtents|TestFromRGBSubsampled' . ./internal/jpegcodec ./internal/imgutil
# Profile hub: origin wire protocol, client fault injection, registry
# lazy fetch and sync, and the two-server fleet scenario.
go test ./internal/profilehub
go test -run 'TestRegistryLazyFetch|TestSyncSource|TestWatchSyncs|TestLazyFetchSingleFlight|TestSignature|TestReadSignature|TestGC|TestCompare|TestWriteFileAtomic|TestReadChecksum' ./internal/profile
go test -run 'TestFleet|TestServerHub' ./internal/server
# HTTP server suite as its own leg (also inside the race run above).
go test -count 1 ./internal/server
# Paper numbers (skipped under -race): Figs. 2a/3/5/7 headline values
# held to tolerance bands.
go test -count 1 -run '^TestPaperNumbers$' .
# perfbench/ is a nested module that ./... skips; vet and self-test it so
# an internal API change cannot silently break the benchmark binary.
(cd perfbench && go vet ./... && go test ./...)
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 5s ./internal/jpegcodec
go test -run '^$' -fuzz '^FuzzDecodeSharded$' -fuzztime 5s ./internal/jpegcodec
go test -run '^$' -fuzz '^FuzzRequantize$' -fuzztime 5s ./internal/jpegcodec
go test -run '^$' -fuzz '^FuzzDecodeProgressive$' -fuzztime 5s ./internal/jpegcodec
go test -run '^$' -fuzz '^FuzzReaderOracle$' -fuzztime 5s ./internal/bitio
go test -run '^$' -fuzz '^FuzzProfileDecode$' -fuzztime 5s ./internal/profile
go test -run '^$' -fuzz '^FuzzParseIndex$' -fuzztime 5s ./internal/profilehub
