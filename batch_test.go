package deepnjpeg

// Concurrency tests for the batch API. Everything here is meant to run
// under -race: one calibrated Codec is shared across goroutines and
// batches, which is exactly the deployment shape the batch pipeline
// exists for.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func batchCodec(t *testing.T) (*Codec, []*Image) {
	t.Helper()
	images, labels := calibrationSet(t)
	codec, err := Calibrate(images, labels, CalibrateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return codec, images
}

func TestEncodeBatchMatchesSequential(t *testing.T) {
	codec, images := batchCodec(t)
	want := make([][]byte, len(images))
	for i, im := range images {
		data, err := codec.Encode(im)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = data
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, err := codec.EncodeBatch(context.Background(), images, BatchOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d streams, want %d", len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("stream %d differs from sequential encode", i)
				}
			}
		})
	}
}

func TestEncodeGrayBatchMatchesSequential(t *testing.T) {
	codec, images := batchCodec(t)
	grays := make([]*Gray, len(images))
	for i, im := range images {
		grays[i] = toGray(im)
	}
	want := make([][]byte, len(grays))
	for i, g := range grays {
		data, err := codec.EncodeGray(g)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = data
	}
	got, err := codec.EncodeGrayBatch(context.Background(), grays, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("gray stream %d differs from sequential encode", i)
		}
	}
}

func toGray(im *Image) *Gray {
	g := NewGray(im.W, im.H)
	for i := 0; i < im.W*im.H; i++ {
		g.Pix[i] = im.Pix[3*i]
	}
	return g
}

func TestDecodeBatchMatchesSequential(t *testing.T) {
	codec, images := batchCodec(t)
	streams, err := codec.EncodeBatch(context.Background(), images, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeBatch(context.Background(), streams, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decoded {
		want, err := Decode(streams[i])
		if err != nil {
			t.Fatal(err)
		}
		if d.W != want.W || d.H != want.H || !bytes.Equal(d.Pix, want.Pix) {
			t.Fatalf("batch-decoded image %d differs from sequential decode", i)
		}
	}
}

// TestEncodeBatchPerItemErrors: images the encoder rejects fail as their
// own items while the rest of the batch completes. A pixel buffer shorter
// than W×H pixels must fail as an error, not panic the pool worker and
// with it the process; a longer one must not be encoded from its prefix.
func TestEncodeBatchPerItemErrors(t *testing.T) {
	codec, images := batchCodec(t)
	batch := append([]*Image{}, images[:6]...)
	short, long := *images[1], *images[4]
	short.Pix = short.Pix[:len(short.Pix)-3]
	long.Pix = append(long.Pix[:len(long.Pix):len(long.Pix)], 0, 0, 0)
	batch[1] = &short
	batch[2] = NewImage(0, 0) // empty image: encoder rejects it
	batch[4] = &long
	bad := map[int]bool{1: true, 2: true, 4: true}
	out, err := codec.EncodeBatch(context.Background(), batch, BatchOptions{Workers: 2})
	if err == nil {
		t.Fatal("expected a batch error")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error %T does not unwrap to *BatchError", err)
	}
	if len(be.Items) != len(bad) {
		t.Fatalf("unexpected failed items %v", be.Items)
	}
	for _, it := range be.Items {
		if !bad[it.Index] {
			t.Fatalf("unexpected failed items %v", be.Items)
		}
	}
	for i, data := range out {
		if bad[i] {
			if data != nil {
				t.Fatal("failed item produced output")
			}
			continue
		}
		if len(data) == 0 {
			t.Fatalf("healthy item %d produced no output", i)
		}
		if _, err := Decode(data); err != nil {
			t.Fatalf("healthy item %d stream corrupt: %v", i, err)
		}
	}
}

func TestDecodeBatchPerItemErrors(t *testing.T) {
	codec, images := batchCodec(t)
	streams, err := codec.EncodeBatch(context.Background(), images[:3], BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	streams[1] = []byte("definitely not a jpeg")
	out, err := DecodeBatch(context.Background(), streams, BatchOptions{Workers: 3})
	var be *BatchError
	if !errors.As(err, &be) || len(be.Items) != 1 || be.Items[0].Index != 1 {
		t.Fatalf("err = %v, want BatchError for item 1", err)
	}
	if out[0] == nil || out[2] == nil || out[1] != nil {
		t.Fatal("batch output does not isolate the corrupt item")
	}
}

// TestSharedCodecAcrossGoroutines hammers one Codec from many
// goroutines mixing single-image and batch calls — the -race payload.
func TestSharedCodecAcrossGoroutines(t *testing.T) {
	codec, images := batchCodec(t)
	ref, err := codec.Encode(images[0])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				out, err := codec.EncodeBatch(context.Background(), images, BatchOptions{Workers: 2})
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(out[0], ref) {
					t.Error("concurrent batch encode diverged")
				}
				return
			}
			for k := 0; k < 4; k++ {
				data, err := codec.Encode(images[0])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(data, ref) {
					t.Error("concurrent encode diverged")
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestEncodeBatchCancelBeforeStart(t *testing.T) {
	codec, images := batchCodec(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := codec.EncodeBatch(ctx, images, BatchOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, data := range out {
		if data != nil {
			t.Fatalf("item %d ran under a pre-canceled context", i)
		}
	}
}

// TestEncodeBatchCancelMidBatch cancels while a slow single-worker batch
// is in flight: the call must return promptly with a context error and
// the tail of the batch must be unprocessed.
func TestEncodeBatchCancelMidBatch(t *testing.T) {
	codec, images := batchCodec(t)
	// A batch big enough that one worker cannot finish before the cancel.
	big := make([]*Image, 0, 2048)
	for len(big) < cap(big) {
		big = append(big, images[len(big)%len(images)])
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	out, err := codec.EncodeBatch(ctx, big, BatchOptions{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	done := 0
	for _, data := range out {
		if data != nil {
			done++
		}
	}
	if done == len(big) {
		t.Fatal("entire batch completed despite cancellation")
	}
}
