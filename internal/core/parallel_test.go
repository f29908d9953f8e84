package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
)

func calibrationDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	cfg := dataset.Quick()
	cfg.TrainPerClass, cfg.TestPerClass = 12, 1
	cfg.Color = true
	train, _, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return train
}

// TestParallelCalibrateMatchesSequential is the acceptance bar for the
// parallel statistics pass: the chunk split is fixed by the sampled
// images, so under any GOMAXPROCS, and on a repeat at each setting, the
// statistics and PLM parameters are bit-identical and the tables equal.
func TestParallelCalibrateMatchesSequential(t *testing.T) {
	ds := calibrationDataset(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *Framework
	for _, procs := range []int{1, 2, 3, 4} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 2; run++ {
			fw, err := Calibrate(ds, CalibrateOptions{Chroma: true})
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			if ref == nil {
				ref = fw
				continue
			}
			if !bytes.Equal(fw.Stats.AppendBinary(nil), ref.Stats.AppendBinary(nil)) ||
				!bytes.Equal(fw.ChromaStats.AppendBinary(nil), ref.ChromaStats.AppendBinary(nil)) {
				t.Fatalf("GOMAXPROCS=%d run %d: statistics differ from GOMAXPROCS=1's", procs, run)
			}
			// %b prints each float's exact mantissa and exponent.
			if fmt.Sprintf("%b", fw.Params) != fmt.Sprintf("%b", ref.Params) {
				t.Fatalf("GOMAXPROCS=%d run %d: PLM parameters %+v, GOMAXPROCS=1 fitted %+v", procs, run, fw.Params, ref.Params)
			}
			if fw.LumaTable != ref.LumaTable || fw.ChromaTable != ref.ChromaTable {
				t.Fatalf("GOMAXPROCS=%d run %d: tables differ\ngot luma:\n%swant luma:\n%s",
					procs, run, fw.LumaTable.String(), ref.LumaTable.String())
			}
			if fw.SampledCount != ref.SampledCount {
				t.Fatalf("GOMAXPROCS=%d run %d: sampled %d images, want %d", procs, run, fw.SampledCount, ref.SampledCount)
			}
		}
	}
}

// TestParallelCalibrateConcurrentCallers runs several parallel
// calibrations at once over the same dataset; meant for -race.
func TestParallelCalibrateConcurrentCallers(t *testing.T) {
	ds := calibrationDataset(t)
	ref, err := Calibrate(ds, CalibrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fw, err := Calibrate(ds, CalibrateOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			if fw.LumaTable != ref.LumaTable {
				t.Error("concurrent parallel calibration diverged from reference")
			}
		}()
	}
	wg.Wait()
}
