package jpegcodec

// Metadata passthrough tests: the decoder records APPn/COM segments,
// Requantize re-emits them byte-identical by default (EXIF, ICC
// profiles, comments survive archive re-targeting), StripMetadata opts
// out, and the re-emitted JFIF APP0 never duplicates the canonical one
// the encoder writes itself.

import (
	"bytes"
	"image/jpeg"
	"testing"

	"repro/internal/qtable"
)

var testMetaSegments = []MetaSegment{
	{Marker: mAPP0 + 1, Payload: []byte("Exif\x00\x00MM\x00\x2a\x00\x00\x00\x08fake-ifd")},
	{Marker: mAPP0 + 2, Payload: append([]byte("ICC_PROFILE\x00\x01\x01"), bytes.Repeat([]byte{0xAB}, 64)...)},
	{Marker: mCOM, Payload: []byte("shot on a test pattern generator")},
	{Marker: mAPP0 + 13, Payload: []byte("<x:xmpmeta/>")},
}

// encodeWithMeta emits a color stream carrying the test segments.
func encodeWithMeta(t *testing.T, sub Subsampling) []byte {
	t.Helper()
	return encodeToBytes(t, testImageRGB(48, 40, 41), &Options{
		LumaTable:   qtable.MustScale(qtable.StdLuminance, 90),
		ChromaTable: qtable.MustScale(qtable.StdChrominance, 90),
		Subsampling: sub,
		Metadata:    testMetaSegments,
	})
}

// countAPP0 walks the marker segments before the scan and counts APP0s,
// returning also whether each carried the JFIF signature.
func countAPP0(t *testing.T, data []byte) (app0s, jfifs int) {
	t.Helper()
	i := 2 // past SOI
	for i+4 <= len(data) {
		if data[i] != 0xFF {
			t.Fatalf("expected marker at offset %d, found %#02x", i, data[i])
		}
		m := data[i+1]
		if m == mSOS {
			return app0s, jfifs
		}
		n := int(data[i+2])<<8 | int(data[i+3])
		if m == mAPP0 {
			app0s++
			if n >= 7 && string(data[i+4:i+9]) == "JFIF\x00" {
				jfifs++
			}
		}
		i += 2 + n
	}
	t.Fatal("no SOS before end of stream")
	return 0, 0
}

func TestDecodeRecordsMetadata(t *testing.T) {
	data := encodeWithMeta(t, Sub420)
	if _, err := jpeg.Decode(bytes.NewReader(data)); err != nil {
		t.Fatalf("stdlib rejects the metadata-laden stream: %v", err)
	}
	dec, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// The canonical JFIF APP0 the encoder writes is itself recorded,
	// followed by the attached segments in order.
	if len(dec.Metadata) != 1+len(testMetaSegments) {
		t.Fatalf("recorded %d segments, want %d", len(dec.Metadata), 1+len(testMetaSegments))
	}
	if !isJFIFAPP0(dec.Metadata[0]) {
		t.Fatalf("first recorded segment is %#02x, want the JFIF APP0", dec.Metadata[0].Marker)
	}
	for i, want := range testMetaSegments {
		got := dec.Metadata[i+1]
		if got.Marker != want.Marker || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("segment %d: marker %#02x payload %d bytes, want %#02x / %d bytes",
				i, got.Marker, len(got.Payload), want.Marker, len(want.Payload))
		}
	}
}

func TestRequantizeMetadataPassthrough(t *testing.T) {
	for _, sub := range []Subsampling{Sub420, Sub422} {
		data := encodeWithMeta(t, sub)
		dec, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		luma := qtable.MustScale(qtable.StdLuminance, 60)
		chroma := qtable.MustScale(qtable.StdChrominance, 60)
		var buf bytes.Buffer
		if err := Requantize(&buf, dec, luma, chroma, nil); err != nil {
			t.Fatal(err)
		}
		out := buf.Bytes()
		// Exactly one APP0 — the source's JFIF segment passed through, the
		// canonical one suppressed (the duplicate-APP0 regression).
		if app0s, jfifs := countAPP0(t, out); app0s != 1 || jfifs != 1 {
			t.Fatalf("%v: requantized stream has %d APP0s (%d JFIF), want exactly 1", sub, app0s, jfifs)
		}
		back, err := Decode(bytes.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		if len(back.Metadata) != len(dec.Metadata) {
			t.Fatalf("%v: %d segments after requantize, want %d", sub, len(back.Metadata), len(dec.Metadata))
		}
		for i := range dec.Metadata {
			if back.Metadata[i].Marker != dec.Metadata[i].Marker ||
				!bytes.Equal(back.Metadata[i].Payload, dec.Metadata[i].Payload) {
				t.Fatalf("%v: segment %d not byte-identical through requantize", sub, i)
			}
		}
		// Passthrough must not break byte-stability: requantizing the
		// requantized stream reproduces it exactly.
		var again bytes.Buffer
		if err := Requantize(&again, back, luma, chroma, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, again.Bytes()) {
			t.Fatalf("%v: requantize with metadata is not byte-stable", sub)
		}
	}
}

func TestRequantizeStripMetadata(t *testing.T) {
	dec, err := Decode(bytes.NewReader(encodeWithMeta(t, Sub420)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = Requantize(&buf, dec, qtable.MustScale(qtable.StdLuminance, 60),
		qtable.MustScale(qtable.StdChrominance, 60), &Options{StripMetadata: true})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Only the canonical JFIF APP0 survives.
	if len(back.Metadata) != 1 || !isJFIFAPP0(back.Metadata[0]) {
		t.Fatalf("stripped stream carries %d segments, want only the canonical JFIF APP0", len(back.Metadata))
	}
}

func TestEncodeRejectsBadMetadata(t *testing.T) {
	img := testImageRGB(16, 16, 43)
	for name, segs := range map[string][]MetaSegment{
		"non-APPn marker": {{Marker: mDQT, Payload: []byte("x")}},
		"oversized payload": {{Marker: mAPP0 + 1,
			Payload: make([]byte, maxSegmentPayload+1)}},
	} {
		var buf bytes.Buffer
		if err := EncodeRGB(&buf, img, &Options{Metadata: segs}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestDecodeIntoReusesMetadataBuffers pins the steady-state allocation
// contract: repeated DecodeInto of metadata-laden streams reuses the
// Decoded's segment slice and flat payload buffer.
func TestDecodeIntoReusesMetadataBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	data := encodeWithMeta(t, Sub422)
	var dec Decoded
	if err := DecodeInto(bytes.NewReader(data), &dec, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := DecodeInto(bytes.NewReader(data), &dec, nil); err != nil {
			t.Fatal(err)
		}
	})
	// The same bound the plain steady-state decode holds; metadata
	// recording must not add per-call allocations.
	if allocs > 4 {
		t.Fatalf("steady-state DecodeInto with metadata allocates %.1f/op, want ≤ 4", allocs)
	}
}
