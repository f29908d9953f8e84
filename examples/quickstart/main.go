// Quickstart: calibrate DeepN-JPEG on a labeled image set, compress one
// image with it, and compare against standard JPEG at QF 100 and QF 50 —
// sizes, compression ratios and PSNR.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	deepnjpeg "repro"
	"repro/internal/dataset"
)

func main() {
	// Generate a small labeled dataset (stand-in for your own corpus).
	cfg := dataset.Quick()
	cfg.Color = true
	train, test, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Calibrate: frequency analysis → band ranking → quantization table.
	codec, err := deepnjpeg.Calibrate(train.Images, train.Labels, deepnjpeg.CalibrateConfig{Chroma: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("calibrated luminance quantization table:")
	fmt.Print(codec.LumaTable().String())

	// Compress one held-out image three ways.
	img := test.Images[0]
	deepn, err := codec.Encode(img)
	if err != nil {
		log.Fatal(err)
	}
	qf100, err := deepnjpeg.EncodeJPEG(img, 100)
	if err != nil {
		log.Fatal(err)
	}
	qf50, err := deepnjpeg.EncodeJPEG(img, 50)
	if err != nil {
		log.Fatal(err)
	}

	report := func(name string, data []byte) {
		back, err := deepnjpeg.Decode(data)
		if err != nil {
			log.Fatal(err)
		}
		psnr, err := deepnjpeg.PSNR(img, back)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %6d bytes  CR %.2f×  PSNR %.1f dB\n",
			name, len(data), deepnjpeg.CompressionRatio(len(qf100), len(data)), psnr)
	}
	fmt.Printf("\nimage %dx%d, CR measured against JPEG QF=100:\n", img.W, img.H)
	report("jpeg-qf100", qf100)
	report("jpeg-qf50", qf50)
	report("deepn-jpeg", deepn)
	fmt.Println("\nDeepN-JPEG compresses hardest while preserving the DCT bands")
	fmt.Println("the dataset's discriminative features live in (see examples/robustness).")
}
