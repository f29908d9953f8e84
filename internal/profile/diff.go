package profile

// Profile diffing, the lifecycle tool behind `deepn-jpeg profiles diff`:
// two calibrations of the same dataset should differ only where the
// underlying statistics moved, and an operator deciding whether to roll
// a fleet from v1 to v2 wants exactly that delta — per-band quantization
// steps and the frequency statistics they were derived from — not a
// byte-level "files differ".

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/freqstat"
	"repro/internal/qtable"
)

// TableDelta is one quantization band whose step differs.
type TableDelta struct {
	Band int // natural (row-major) index, 0..63
	A, B uint16
}

// StatDelta is one per-band statistic that differs between two profiles.
type StatDelta struct {
	Band  int
	Field string // "mean", "std", "min", "max"
	A, B  float64
}

// Diff is the structured comparison of two profiles.
type Diff struct {
	// Fields lists metadata-level differences (sampled count, chroma
	// calibration, PLM parameters) as rendered lines.
	Fields []string
	// Luma and Chroma list the quantization bands whose steps differ.
	Luma, Chroma []TableDelta
	// LumaStats and ChromaStats list per-band statistic differences.
	// Statistics are stored bit-exact, so comparison is exact equality.
	LumaStats, ChromaStats []StatDelta
}

// Identical reports whether the two profiles' calibration content is the
// same. Identity fields (name, version, creation time, comment) are
// deliberately outside the comparison: diff answers "would these two
// profiles encode differently / were they fit from the same statistics",
// not "are these the same file".
func (d *Diff) Identical() bool {
	return len(d.Fields) == 0 && len(d.Luma) == 0 && len(d.Chroma) == 0 &&
		len(d.LumaStats) == 0 && len(d.ChromaStats) == 0
}

// Compare diffs two profiles' calibration content: tables, statistics,
// and the calibration metadata that changes encoded output.
func Compare(a, b *Profile) *Diff {
	d := &Diff{}
	if a.SampledCount != b.SampledCount {
		d.Fields = append(d.Fields, fmt.Sprintf("sampled: %d → %d images", a.SampledCount, b.SampledCount))
	}
	if a.ChromaCalibrated != b.ChromaCalibrated {
		d.Fields = append(d.Fields, fmt.Sprintf("chroma calibrated: %v → %v", a.ChromaCalibrated, b.ChromaCalibrated))
	}
	pa, pb := a.Params, b.Params
	for _, f := range [...]struct {
		name string
		a, b float64
	}{
		{"a", pa.A, pb.A}, {"b", pa.B, pb.B}, {"c", pa.C, pb.C},
		{"k1", pa.K1, pb.K1}, {"k2", pa.K2, pb.K2}, {"k3", pa.K3, pb.K3},
		{"T1", pa.T1, pb.T1}, {"T2", pa.T2, pb.T2},
		{"Qmin", pa.QMin, pb.QMin}, {"Qmax", pa.QMax, pb.QMax},
	} {
		if math.Float64bits(f.a) != math.Float64bits(f.b) {
			d.Fields = append(d.Fields, fmt.Sprintf("PLM %s: %g → %g", f.name, f.a, f.b))
		}
	}
	d.Luma = diffTables(&a.Luma, &b.Luma)
	d.Chroma = diffTables(&a.Chroma, &b.Chroma)
	d.LumaStats = diffStats(a.LumaStats, b.LumaStats)
	d.ChromaStats = diffStats(a.ChromaStats, b.ChromaStats)
	return d
}

func diffTables(a, b *qtable.Table) []TableDelta {
	var out []TableDelta
	for i := range a {
		if a[i] != b[i] {
			out = append(out, TableDelta{Band: i, A: a[i], B: b[i]})
		}
	}
	return out
}

func diffStats(a, b *freqstat.Stats) []StatDelta {
	switch {
	case a == nil && b == nil:
		return nil
	case a == nil:
		a = &freqstat.Stats{}
	case b == nil:
		b = &freqstat.Stats{}
	}
	var out []StatDelta
	if a.Blocks != b.Blocks {
		out = append(out, StatDelta{Band: -1, Field: "blocks", A: float64(a.Blocks), B: float64(b.Blocks)})
	}
	for _, f := range [...]struct {
		name string
		a, b *[64]float64
	}{
		{"mean", &a.Mean, &b.Mean}, {"std", &a.Std, &b.Std},
		{"min", &a.Min, &b.Min}, {"max", &a.Max, &b.Max},
	} {
		for i := 0; i < 64; i++ {
			if math.Float64bits(f.a[i]) != math.Float64bits(f.b[i]) {
				out = append(out, StatDelta{Band: i, Field: f.name, A: f.a[i], B: f.b[i]})
			}
		}
	}
	return out
}

// String renders the diff for terminals: one line per metadata change,
// per-band table deltas as signed step changes, and a compact summary of
// statistic movement. Empty output means identical calibration content.
func (d *Diff) String() string {
	if d.Identical() {
		return ""
	}
	var sb strings.Builder
	for _, f := range d.Fields {
		fmt.Fprintf(&sb, "%s\n", f)
	}
	writeTableDeltas(&sb, "luma", d.Luma)
	writeTableDeltas(&sb, "chroma", d.Chroma)
	writeStatDeltas(&sb, "luma stats", d.LumaStats)
	writeStatDeltas(&sb, "chroma stats", d.ChromaStats)
	return sb.String()
}

func writeTableDeltas(sb *strings.Builder, label string, deltas []TableDelta) {
	if len(deltas) == 0 {
		return
	}
	fmt.Fprintf(sb, "%s table: %d of 64 bands differ\n", label, len(deltas))
	for _, td := range deltas {
		fmt.Fprintf(sb, "  band[%d,%d]: %d → %d (%+d)\n",
			td.Band/8, td.Band%8, td.A, td.B, int(td.B)-int(td.A))
	}
}

func writeStatDeltas(sb *strings.Builder, label string, deltas []StatDelta) {
	if len(deltas) == 0 {
		return
	}
	// Per-band float listings get long; summarize per field with the
	// largest absolute movement, which is what a reviewer scans for.
	byField := map[string]struct {
		n        int
		maxDelta float64
		maxBand  int
	}{}
	for _, sd := range deltas {
		if sd.Field == "blocks" {
			fmt.Fprintf(sb, "%s: blocks %d → %d\n", label, int64(sd.A), int64(sd.B))
			continue
		}
		e := byField[sd.Field]
		e.n++
		if diff := math.Abs(sd.B - sd.A); diff >= e.maxDelta {
			e.maxDelta, e.maxBand = diff, sd.Band
		}
		byField[sd.Field] = e
	}
	for _, field := range [...]string{"mean", "std", "min", "max"} {
		if e, ok := byField[field]; ok {
			fmt.Fprintf(sb, "%s: %s differs in %d band(s), max |Δ|=%.4g at band[%d,%d]\n",
				label, field, e.n, e.maxDelta, e.maxBand/8, e.maxBand%8)
		}
	}
}
