package deepnjpeg

// Cross-commit byte pins: SHA-256 digests of every encode and
// requantize stream shape the public Codec emits, plus the calibrated
// tables, recorded in testdata/stream_digests.txt. Self-consistency
// suites compare two paths of the same build; this file compares the
// build against the bytes an earlier build wrote, so a change to the
// transform, the quantizer or the entropy coder that moves a single
// output byte fails here by name. Regenerate only after a deliberate
// output change, with
//
//	UPDATE_STREAM_DIGESTS=1 go test -run '^TestStreamDigests$' .

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/jpegcodec"
	"repro/internal/qtable"
)

const streamDigestsPath = "testdata/stream_digests.txt"

// digestSet is a seeded SynthNet color set at a size that is not a
// multiple of the 16-pixel 4:2:0 MCU, plus a crop of each image to odd
// dimensions, so partial edge blocks and MCU padding land in the pins.
func digestSet(t *testing.T) (images []*Image, labels []int) {
	t.Helper()
	train, _, err := dataset.Generate(dataset.Config{
		Classes: 4, Size: 40, TrainPerClass: 3, TestPerClass: 1, Color: true, NoiseStd: 5, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, im := range train.Images {
		crop := NewImage(im.W-3, im.H-11)
		for y := 0; y < crop.H; y++ {
			copy(crop.Pix[3*y*crop.W:3*(y+1)*crop.W], im.Pix[3*y*im.W:])
		}
		images = append(images, im, crop)
		labels = append(labels, train.Labels[i], train.Labels[i])
	}
	return images, labels
}

// streamDigests computes every pinned line: one digest per encode or
// requantize configuration (over all images of the set, in order) and
// the two calibrated tables.
func streamDigests(t *testing.T) map[string]string {
	t.Helper()
	images, labels := digestSet(t)
	codec, err := Calibrate(images, labels, CalibrateConfig{Chroma: true})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{
		"table/luma":   tableLine(codec.LumaTable()),
		"table/chroma": tableLine(codec.ChromaTable()),
	}
	layouts := []struct {
		name string
		sub  Subsampling
		gray bool
	}{{"gray", Sub420, true}, {"420", Sub420, false}, {"444", Sub444, false}, {"422", Sub422, false}}
	srcLuma := qtable.MustScale(qtable.StdLuminance, 90)
	srcChroma := qtable.MustScale(qtable.StdChrominance, 90)
	for _, l := range layouts {
		// Requantize sources: Annex-K QF 90 streams of the same layout.
		var sources [][]byte
		for _, im := range images {
			var buf bytes.Buffer
			opts := jpegcodec.Options{LumaTable: srcLuma, ChromaTable: srcChroma, Subsampling: l.sub}
			if l.gray {
				err = jpegcodec.EncodeGray(&buf, im.ToGray(), &opts)
			} else {
				err = jpegcodec.EncodeRGB(&buf, im, &opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			sources = append(sources, buf.Bytes())
		}
		for _, ri := range []int{0, 4} {
			for _, opt := range []bool{false, true} {
				key := fmt.Sprintf("%s/ri%d/opt=%v", l.name, ri, opt)
				enc, req := sha256.New(), sha256.New()
				for i, im := range images {
					eo := EncodeOptions{RestartInterval: ri, OptimizeHuffman: opt, Subsampling: l.sub}
					var data []byte
					switch {
					case l.gray:
						data, err = codec.EncodeGrayWith(im.ToGray(), eo)
					case ri == 0 && !opt && l.sub == Sub420:
						data, err = codec.Encode(im) // the zero-option entry point
					default:
						data, err = codec.EncodeWith(im, eo)
					}
					if err != nil {
						t.Fatalf("encode %s image %d: %v", key, i, err)
					}
					enc.Write(data)
					data, err = codec.Requantize(sources[i], RequantizeOptions{RestartInterval: ri, OptimizeHuffman: opt})
					if err != nil {
						t.Fatalf("requantize %s image %d: %v", key, i, err)
					}
					req.Write(data)
				}
				out["encode/"+key] = hex.EncodeToString(enc.Sum(nil))
				out["requantize/"+key] = hex.EncodeToString(req.Sum(nil))
			}
		}
	}
	return out
}

func tableLine(tbl QuantTable) string {
	parts := make([]string, len(tbl))
	for i, q := range tbl {
		parts[i] = fmt.Sprint(q)
	}
	return strings.Join(parts, ",")
}

// TestStreamDigests holds the codec's output to the checked-in digests
// and reports every line that moved, not just the first.
func TestStreamDigests(t *testing.T) {
	got := streamDigests(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if os.Getenv("UPDATE_STREAM_DIGESTS") != "" {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(streamDigestsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamDigestsPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(streamDigestsPath)
	if err != nil {
		t.Fatalf("digest file missing (regenerate with UPDATE_STREAM_DIGESTS=1): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		want[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: not pinned", k)
		} else if w != got[k] {
			t.Errorf("%s moved:\n  pinned %s\n  now    %s", k, w, got[k])
		}
	}
	if len(want) != len(keys) {
		t.Errorf("digest file has %d lines, the test computes %d", len(want), len(keys))
	}
}
