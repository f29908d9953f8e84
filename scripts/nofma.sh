#!/bin/sh
# Fused multiply-add gate. The Go spec lets a compiler fuse x*y + z into
# one rounding unless an explicit conversion rounds the product; amd64
# never fuses, but arm64, riscv64, loong64, ppc64le and s390x do, and a
# fused operation there computes other bits than amd64 does. This builds
# the packages whose float arithmetic feeds the encoder's pinned bytes,
# and the statistics pass the calibrated tables come from, for each of
# those architectures with -gcflags=-S and fails on any fused
# multiply-add mnemonic in their code. Cross-compiling needs no emulator.
# internal/dct is not listed yet: its four AAN kernels still hold 22 fused
# operations on arm64 (18 on ppc64le and s390x).
set -eu

cd "$(dirname "$0")/.."

pkgs="./internal/jpegcodec ./internal/qtable ./internal/core ./internal/imgutil ./internal/freqstat"
fused='^[[:space:]]+0x[0-9a-f]+ [0-9]+ \([^)]*\)[[:space:]]+[VW]?FN?M(ADD|SUB|LA|LS)[A-Z0-9]*([[:space:]]|$)'
status=0
for arch in arm64 riscv64 loong64 ppc64le s390x; do
	# Capture first, so a failing build fails the gate instead of
	# leaving nothing to match.
	asm=$(GOARCH=$arch ${GO:-go} build -gcflags=-S $pkgs 2>&1) || {
		printf '%s\n' "$asm" >&2
		exit 1
	}
	if found=$(printf '%s\n' "$asm" | grep -E "$fused"); then
		echo "fused multiply-add on $arch:" >&2
		printf '%s\n' "$found" >&2
		status=1
	fi
done
exit $status
