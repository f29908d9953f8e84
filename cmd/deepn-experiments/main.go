// Command deepn-experiments regenerates the figures of the DeepN-JPEG
// paper's evaluation on the SynthNet substrate:
//
//	deepn-experiments -fig 7                 # one figure, quick profile
//	deepn-experiments -fig all -profile paper
//
// Available figures: 2a 2b 3 5 6 7 8 9 latency. The quick profile runs
// them all in 183.6–242.8 s on a shared 2-vCPU x86-64 host, most of it
// in Fig. 8; the paper profile retrains a model per scheme and takes
// longer.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce (2a 2b 3 5 6 7 8 9 latency all)")
	profile := flag.String("profile", "quick", "workload profile: quick or paper")
	flag.Parse()

	var p experiments.Profile
	switch *profile {
	case "quick":
		p = experiments.Quick()
	case "paper":
		p = experiments.PaperProfile()
	default:
		fmt.Fprintf(os.Stderr, "deepn-experiments: unknown profile %q\n", *profile)
		os.Exit(2)
	}

	start := time.Now()
	fmt.Printf("profile %s: %d classes × %d train / %d test images (%dx%d, color=%v), model %s\n",
		p.Name, p.Data.Classes, p.Data.TrainPerClass, p.Data.TestPerClass,
		p.Data.Size, p.Data.Size, p.Data.Color, p.Model)
	ctx, err := experiments.NewContext(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deepn-experiments:", err)
		os.Exit(1)
	}
	fmt.Printf("calibrated DeepN-JPEG on %d images (T1=%.2f T2=%.2f, δmax=%.1f)\n\n",
		ctx.Framework.SampledCount, ctx.Framework.Params.T1, ctx.Framework.Params.T2,
		ctx.Framework.Stats.MaxStd())

	figures := []string{*fig}
	if *fig == "all" {
		figures = experiments.Figures()
	}
	for _, f := range figures {
		t0 := time.Now()
		tbl, err := experiments.Run(f, ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepn-experiments: figure %s: %v\n", f, err)
			os.Exit(1)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "deepn-experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("(%.1fs)\n\n", time.Since(t0).Seconds())
	}
	fmt.Printf("total %.1fs\n", time.Since(start).Seconds())
}
