// Package inputs synthesizes the benchmark's seeded inputs: SynthNet
// frames from the program's dataset generator, and archive sources
// written by the standard library's image/jpeg. The program never sees
// the seed, only the pixels and bytes built here; the same seed always
// yields the same inputs, which Digest fingerprints.
package inputs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"image/jpeg"
	"math/rand"

	deepnjpeg "repro"
	"repro/internal/dataset"
)

// Spec sizes an input set. Default is what the benchmark runs; tests
// shrink it.
type Spec struct {
	Frames         int // canonical frames (one batch)
	FrameSize      int // canonical frame edge in pixels
	CorpusClasses  int // calibration corpus classes
	CorpusPerClass int // calibration frames per class
	CorpusSize     int // calibration frame edge
	Large          int // large restart-interval frames (serve-mix)
	LargeSize      int // large frame edge
	ArchiveQuality int // stdlib quality of the archive sources
	APP1Bytes      int // spliced APP1 segment size, marker included
}

// Default is the benchmark's input set: one batch of 64 canonical
// 256×256 frames (4:2:0 once encoded), a 384-frame calibration corpus,
// four 1024×1024 frames (4096 MCUs each, so restart sharding engages),
// and quality-90 archive sources carrying a 4 KiB APP1.
func Default() Spec {
	return Spec{
		Frames: 64, FrameSize: 256,
		CorpusClasses: 12, CorpusPerClass: 32, CorpusSize: 128,
		Large: 4, LargeSize: 1024,
		ArchiveQuality: 90, APP1Bytes: 4096,
	}
}

// Set is one seeded input set.
type Set struct {
	Seed   int64
	Frames []*deepnjpeg.Image
	// Corpus and Labels feed Calibrate; the benchmark drops them once
	// set-up is over.
	Corpus []*deepnjpeg.Image
	Labels []int
	// Archive[i] is Sources()[i] — the frames, then the large frames —
	// written by stdlib image/jpeg at Spec.ArchiveQuality with APP1[i]
	// spliced in after SOI.
	Archive [][]byte
	APP1    [][]byte
	Large   []*deepnjpeg.Image
	// Digest fingerprints every pixel and byte above.
	Digest string
}

// Build synthesizes the input set for seed.
func Build(seed int64, spec Spec) (*Set, error) {
	s := &Set{Seed: seed}
	frames, err := synth(seed, 8, spec.Frames, spec.FrameSize)
	if err != nil {
		return nil, err
	}
	s.Frames = frames.Images[:spec.Frames]
	corpus, err := generate(dataset.Config{
		Classes: spec.CorpusClasses, Size: spec.CorpusSize,
		TrainPerClass: spec.CorpusPerClass, TestPerClass: 1,
		Color: true, NoiseStd: 5, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	s.Corpus, s.Labels = corpus.Images, corpus.Labels
	if spec.Large > 0 {
		large, err := synth(seed, 2, spec.Large, spec.LargeSize)
		if err != nil {
			return nil, err
		}
		s.Large = large.Images[:spec.Large]
	}
	rng := rand.New(rand.NewSource(seed))
	for _, f := range s.Sources() {
		app1 := APP1(rng, spec.APP1Bytes)
		src, err := archiveSource(f, spec.ArchiveQuality, app1)
		if err != nil {
			return nil, err
		}
		s.Archive = append(s.Archive, src)
		s.APP1 = append(s.APP1, app1)
	}
	s.Digest = s.digest()
	return s, nil
}

// Sources is the canonical frames followed by the large frames.
func (s *Set) Sources() []*deepnjpeg.Image {
	return append(append([]*deepnjpeg.Image(nil), s.Frames...), s.Large...)
}

// synth draws n color frames of the given edge over the given class
// count (n rounded up to whole classes).
func synth(seed int64, classes, n, size int) (*dataset.Dataset, error) {
	per := (n + classes - 1) / classes
	return generate(dataset.Config{
		Classes: classes, Size: size, TrainPerClass: per, TestPerClass: 1,
		Color: true, NoiseStd: 5, Seed: seed,
	})
}

func generate(cfg dataset.Config) (*dataset.Dataset, error) {
	train, _, err := dataset.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("inputs: synthesizing %d×%d frames: %w", cfg.Size, cfg.Size, err)
	}
	return train, nil
}

// APP1 returns one EXIF-tagged APP1 segment of size bytes (marker and
// length included) with seeded filler.
func APP1(rng *rand.Rand, size int) []byte {
	seg := make([]byte, size)
	seg[0], seg[1] = 0xFF, 0xE1
	binary.BigEndian.PutUint16(seg[2:], uint16(size-2))
	copy(seg[4:], "Exif\x00\x00")
	rng.Read(seg[10:])
	return seg
}

// archiveSource writes f the way a camera or an older pipeline would:
// a stdlib baseline JPEG with an APP1 right after SOI.
func archiveSource(f *deepnjpeg.Image, quality int, app1 []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, f.ToImage(), &jpeg.Options{Quality: quality}); err != nil {
		return nil, fmt.Errorf("inputs: stdlib encode: %w", err)
	}
	b := buf.Bytes()
	out := make([]byte, 0, len(b)+len(app1))
	out = append(out, b[:2]...) // SOI
	out = append(out, app1...)
	return append(out, b[2:]...), nil
}

func (s *Set) digest() string {
	h := sha256.New()
	var hdr [8]byte
	img := func(im *deepnjpeg.Image) {
		binary.LittleEndian.PutUint32(hdr[:4], uint32(im.W))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(im.H))
		h.Write(hdr[:])
		h.Write(im.Pix)
	}
	for _, f := range s.Frames {
		img(f)
	}
	for i, f := range s.Corpus {
		img(f)
		binary.LittleEndian.PutUint32(hdr[:4], uint32(s.Labels[i]))
		h.Write(hdr[:4])
	}
	for _, f := range s.Large {
		img(f)
	}
	for _, a := range s.Archive {
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(a)))
		h.Write(hdr[:4])
		h.Write(a)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Pixels is the source pixel count of a frame set.
func Pixels(frames []*deepnjpeg.Image) int64 {
	var n int64
	for _, f := range frames {
		n += int64(f.W) * int64(f.H)
	}
	return n
}
