package inputs

import (
	"bytes"
	"image/jpeg"
	"testing"
)

// small is a reduced input set with the same shape as Default.
func small() Spec {
	return Spec{
		Frames: 4, FrameSize: 32,
		CorpusClasses: 2, CorpusPerClass: 2, CorpusSize: 16,
		Large: 1, LargeSize: 64,
		ArchiveQuality: 90, APP1Bytes: 512,
	}
}

func TestDigestFollowsSeed(t *testing.T) {
	a, err := Build(7, small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(7, small())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(8, small())
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Errorf("same seed, different digests: %s vs %s", a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Errorf("seeds 7 and 8 share digest %s", a.Digest)
	}
}

func TestArchiveSources(t *testing.T) {
	s, err := Build(3, small())
	if err != nil {
		t.Fatal(err)
	}
	srcs := s.Sources()
	if len(s.Archive) != len(srcs) || len(srcs) != 5 {
		t.Fatalf("%d archive sources for %d frames", len(s.Archive), len(srcs))
	}
	for i, a := range s.Archive {
		if !bytes.Equal(a[2:2+len(s.APP1[i])], s.APP1[i]) {
			t.Errorf("source %d: APP1 not spliced right after SOI", i)
		}
		img, err := jpeg.Decode(bytes.NewReader(a))
		if err != nil {
			t.Fatalf("source %d: stdlib cannot read it back: %v", i, err)
		}
		if r := img.Bounds(); r.Dx() != srcs[i].W || r.Dy() != srcs[i].H {
			t.Errorf("source %d: %v, want %d×%d", i, r, srcs[i].W, srcs[i].H)
		}
	}
}
