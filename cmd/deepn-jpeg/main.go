// Command deepn-jpeg is the CLI front end of the DeepN-JPEG codec:
//
//	deepn-jpeg calibrate  [-in imgdir/] [-out p.dnp -name imagenet -pversion 1]
//	                      [-chroma]                              # calibrate, optionally persist a profile
//	deepn-jpeg profiles   list|show|verify [-dir profiles/] [-in p.dnp]  # manage persisted profiles
//	deepn-jpeg profiles   push|pull|sign [-origin URL] [-key k|-pub k.pub]  # hub lifecycle
//	deepn-jpeg profiles   diff a.dnp b.dnp                          # compare calibrations (exit 1 on difference)
//	deepn-jpeg profiles   gc -dir profiles/ [-max-bytes N] [-max-versions N] [-dry-run]
//	deepn-jpeg hub        serve -dir profiles/ [-addr :9701] [-key k] [-push-key s]
//	deepn-jpeg hub        keygen [-out hub-signing.key]             # Ed25519 signing key pair
//	deepn-jpeg encode     -in img.(ppm|pgm|png|jpg) -out out.jpg
//	                      [-qf 85 | -deepn] [-subsampling 420|444|422|440|411] [-optimize]
//	deepn-jpeg encode     -in dir/ -out dir/ [-workers N] ...       # batch-encode a directory
//	deepn-jpeg decode     -in img.jpg -out out.(ppm|pgm|png)
//	deepn-jpeg decode     -in dir/ -out dir/ [-format png] [-workers N]  # batch-decode a directory
//	deepn-jpeg requantize -in img.jpg -out out.jpg [-qf 60 | -deepn]
//	                      [-strip-metadata]                       # alias: transcode
//	deepn-jpeg requantize -in dir/ -out dir/ [-workers N] ...      # batch-requantize a directory
//	deepn-jpeg inspect    -in img.jpg                               # markers, scan parameters, tables
//	deepn-jpeg serve      -addr :8080 [-profile-dir profiles/ -profile name]
//	                      [-hub-origin URL -hub-pub k.pub]          # pull profiles from a hub
//	                      [-api-keys k1:4,k2] [-workers N]         # HTTP codec service
//
// calibrate runs the DeepN-JPEG design flow on an image directory (-in;
// sub-directories are classes, a flat directory is one class, images load
// in parallel through the batch pipeline) or, without -in, on the
// built-in SynthNet generator so the tool works without external data;
// encode -deepn calibrates on the fly the same way. With -out the
// calibration persists as a named, versioned profile file that `profiles
// list|show|verify` manages and `serve -profile` boots from — skipping
// startup calibration entirely.
//
// When -in names a directory, encode, decode and requantize process every
// supported image in it onto -out (a directory) through the concurrent
// batch pipeline; -workers sizes the pool (0 = GOMAXPROCS). Every path
// runs the one block transform, the AAN fast DCT.
//
// serve exposes the codec over HTTP (POST /v1/encode, /v1/decode,
// /v1/requantize, multipart /v1/batch, POST /admin/profiles/reload, GET
// /healthz, /metrics) with per-tenant concurrency limits; -profile-dir
// serves a profile registry with per-request (?profile=name) and
// per-tenant selection plus hot reload. See the README for endpoint
// details and curl examples.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"image/png"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	deepnjpeg "repro"
	"repro/internal/dataset"
	"repro/internal/imgutil"
	"repro/internal/jpegcodec"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/profilehub"
	"repro/internal/qtable"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "calibrate":
		err = runCalibrate(os.Args[2:])
	case "encode":
		err = runEncode(os.Args[2:])
	case "decode":
		err = runDecode(os.Args[2:])
	case "requantize", "transcode":
		err = runRequantize(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	case "profiles":
		err = runProfiles(os.Args[2:])
	case "hub":
		err = runHub(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "deepn-jpeg:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: deepn-jpeg <calibrate|profiles|hub|encode|decode|requantize|inspect|serve> [flags]")
}

// runRequantize re-targets existing JPEGs in the coefficient domain — no
// second IDCT/DCT generation loss — either to a plain QF table or to a
// DeepN-JPEG table calibrated on SynthNet. (Also reachable as the legacy
// "transcode" subcommand.) A directory input batch-requantizes through
// the concurrent pipeline.
func runRequantize(args []string) error {
	fs := flag.NewFlagSet("requantize", flag.ExitOnError)
	in := fs.String("in", "", "input JPEG or directory")
	out := fs.String("out", "", "output JPEG or directory")
	qf := fs.Int("qf", 60, "target quality factor (standard tables)")
	deepn := fs.Bool("deepn", false, "retarget to a DeepN-JPEG table calibrated on SynthNet")
	optimize := fs.Bool("optimize", true, "optimized Huffman tables")
	workers := fs.Int("workers", 0, "worker-pool size for directory requantization (0 = GOMAXPROCS)")
	restart := fs.Int("restart", 0, "output restart interval: 0 = preserve the source's, -1 = strip, n = set n MCUs")
	stripMeta := fs.Bool("strip-metadata", false, "drop APPn/COM segments (EXIF, ICC, comments) instead of passing them through")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("requantize needs -in and -out")
	}
	// Both table choices go through the public requantize API — the same
	// code path (and pooled decoder scratch) the HTTP server dispatches
	// to — so the CLI only decides which tables and does the file IO.
	ropts := deepnjpeg.RequantizeOptions{
		OptimizeHuffman: *optimize,
		RestartInterval: *restart,
		StripMetadata:   *stripMeta,
	}
	var requant func(src []byte) ([]byte, error)
	if *deepn {
		codec, err := synthNetCodec(false)
		if err != nil {
			return err
		}
		requant = func(src []byte) ([]byte, error) { return codec.Requantize(src, ropts) }
	} else {
		target := *qf
		requant = func(src []byte) ([]byte, error) { return deepnjpeg.RequantizeJPEG(src, target, ropts) }
	}
	if st, err := os.Stat(*in); err == nil && st.IsDir() {
		return requantizeDir(*in, *out, *workers, requant)
	}
	src, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	n, err := requantizeStream(src, *out, requant)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d → %d bytes (%.2f×), coefficient-domain requantization\n",
		*out, len(src), n, float64(len(src))/float64(n))
	return nil
}

// synthNetCodec calibrates a codec on the built-in SynthNet generator,
// the stand-in dataset that keeps the tool usable without external data;
// chroma also calibrates the chroma table.
func synthNetCodec(chroma bool) (*deepnjpeg.Codec, error) {
	train, _, err := dataset.Generate(dataset.Quick())
	if err != nil {
		return nil, err
	}
	return deepnjpeg.Calibrate(train.Images, train.Labels, deepnjpeg.CalibrateConfig{Chroma: chroma})
}

// requantizeStream requantizes one in-memory JPEG onto outPath and
// returns the output size.
func requantizeStream(src []byte, outPath string, requant func([]byte) ([]byte, error)) (int, error) {
	out, err := requant(src)
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		return 0, err
	}
	return len(out), nil
}

// requantizeDir batch-requantizes every JPEG in inDir onto outDir through
// the concurrent pipeline, with the same output-collision detection and
// partial-failure reporting as encodeDir.
func requantizeDir(inDir, outDir string, workers int, requant func([]byte) ([]byte, error)) error {
	inputs, err := listInputs(inDir, ".jpg", ".jpeg")
	if err != nil {
		return err
	}
	if len(inputs) == 0 {
		return fmt.Errorf("no JPEGs (jpg/jpeg) in %s", inDir)
	}
	if err := checkOutputCollisions(inputs, ".jpg"); err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var inBytes, outBytes, okCount atomic.Int64
	start := time.Now()
	err = pipeline.Run(context.Background(), len(inputs), workers, func(_ context.Context, i int) error {
		src, err := os.ReadFile(filepath.Join(inDir, inputs[i]))
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(inputs[i], filepath.Ext(inputs[i])) + ".jpg"
		n, err := requantizeStream(src, filepath.Join(outDir, name), requant)
		if err != nil {
			return err
		}
		inBytes.Add(int64(len(src)))
		outBytes.Add(int64(n))
		okCount.Add(1)
		return nil
	})
	elapsed := time.Since(start)
	ok := okCount.Load()
	fmt.Printf("%s: requantized %d/%d JPEGs from %s (workers=%d) in %v (%.1f MB → %.1f MB, %.1f images/s)\n",
		outDir, ok, len(inputs), inDir, pipeline.Workers(workers, len(inputs)), elapsed.Round(time.Millisecond),
		float64(inBytes.Load())/1e6, float64(outBytes.Load())/1e6,
		float64(ok)/elapsed.Seconds())
	return err
}

// listInputs returns the sorted base names in dir whose extension matches
// one of exts (case-insensitive).
func listInputs(dir string, exts ...string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var inputs []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := strings.ToLower(filepath.Ext(e.Name()))
		for _, want := range exts {
			if ext == want {
				inputs = append(inputs, e.Name())
				break
			}
		}
	}
	sort.Strings(inputs)
	return inputs, nil
}

// checkOutputCollisions rejects batches in which two distinct inputs map
// to the same output name: a collision would make one worker's output
// clobber another's (or, when -in and -out are the same directory,
// overwrite an input another worker has yet to read).
func checkOutputCollisions(inputs []string, outExt string) error {
	outNames := make(map[string]string, len(inputs))
	for _, in := range inputs {
		name := strings.TrimSuffix(in, filepath.Ext(in)) + outExt
		if prev, dup := outNames[name]; dup {
			return fmt.Errorf("inputs %s and %s both map to output %s", prev, in, name)
		}
		outNames[name] = in
	}
	return nil
}

func runCalibrate(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ExitOnError)
	in := fs.String("in", "", "image directory to calibrate on (sub-directories are classes); empty = SynthNet")
	out := fs.String("out", "", "write the calibration as a profile file (.dnp)")
	name := fs.String("name", "default", "profile name recorded in -out")
	pversion := fs.Uint("pversion", 1, "profile version recorded in -out (≥ 1)")
	comment := fs.String("comment", "", "free-form provenance recorded in -out")
	classes := fs.Int("classes", 8, "SynthNet classes (ignored with -in)")
	perClass := fs.Int("per-class", 40, "SynthNet images per class (ignored with -in)")
	size := fs.Int("size", 32, "SynthNet image size (ignored with -in)")
	seed := fs.Int64("seed", 1, "SynthNet generator seed (ignored with -in)")
	sampleEvery := fs.Int("sample-every", 0, "keep every k-th image per class (Algorithm 1); ≤1 keeps all")
	chroma := fs.Bool("chroma", false, "also calibrate a chroma table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pversion == 0 || *pversion > math.MaxUint32 {
		return fmt.Errorf("-pversion %d out of range [1, %d]", *pversion, uint64(math.MaxUint32))
	}
	cfg := deepnjpeg.CalibrateConfig{Chroma: *chroma, SampleEvery: *sampleEvery}
	var (
		codec    *deepnjpeg.Codec
		nClasses int
		source   string
		err      error
	)
	start := time.Now()
	if *in != "" {
		images, labels, err := loadImageDir(*in)
		if err != nil {
			return err
		}
		nClasses = countClasses(labels)
		source = *in
		codec, err = deepnjpeg.Calibrate(images, labels, cfg)
		if err != nil {
			return err
		}
	} else {
		dcfg := dataset.Config{Classes: *classes, Size: *size, TrainPerClass: *perClass, TestPerClass: 1, Seed: *seed, NoiseStd: 5, Color: *chroma}
		train, _, gerr := dataset.Generate(dcfg)
		if gerr != nil {
			return gerr
		}
		nClasses = *classes
		source = "SynthNet"
		codec, err = deepnjpeg.Calibrate(train.Images, train.Labels, cfg)
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	p := codec.PLMParams()
	fmt.Printf("calibrated on %s (%d classes) in %v\n", source, nClasses, elapsed.Round(time.Millisecond))
	fmt.Printf("PLM: a=%.1f b=%.1f c=%.1f k1=%.3f k2=%.3f k3=%.3f T1=%.2f T2=%.2f Qmin=%.0f\n",
		p.A, p.B, p.C, p.K1, p.K2, p.K3, p.T1, p.T2, p.QMin)
	fmt.Println("\nluminance table:")
	fmt.Print(codec.LumaTable().String())
	if *chroma {
		fmt.Println("\nchrominance table:")
		fmt.Print(codec.ChromaTable().String())
	}
	if *out != "" {
		meta := deepnjpeg.ProfileMeta{Name: *name, Version: uint32(*pversion), Comment: *comment}
		if err := codec.SaveProfile(*out, meta); err != nil {
			return err
		}
		st, err := os.Stat(*out)
		if err != nil {
			return err
		}
		fmt.Printf("\nprofile %s@%d written to %s (%d bytes)\n", *name, *pversion, *out, st.Size())
	}
	return nil
}

// loadImageDir reads a calibration set from disk, in parallel through
// the batch pipeline. Sub-directories become classes (ImageNet layout)
// and images directly in dir form one more class of their own, so a
// mixed layout loses nothing — labels only drive Algorithm 1's
// stratified sampling, so unlabeled corpora still work.
func loadImageDir(dir string) ([]*imgutil.RGB, []int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var paths []string
	var labels []int
	class := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		names, err := listInputs(filepath.Join(dir, e.Name()), ".ppm", ".pgm", ".png", ".jpg", ".jpeg")
		if err != nil {
			return nil, nil, err
		}
		if len(names) == 0 {
			continue
		}
		for _, n := range names {
			paths = append(paths, filepath.Join(dir, e.Name(), n))
			labels = append(labels, class)
		}
		class++
	}
	rootNames, err := listInputs(dir, ".ppm", ".pgm", ".png", ".jpg", ".jpeg")
	if err != nil {
		return nil, nil, err
	}
	for _, n := range rootNames {
		paths = append(paths, filepath.Join(dir, n))
		labels = append(labels, class)
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no calibration images (ppm/pgm/png/jpg) under %s", dir)
	}
	images, err := pipeline.Map(context.Background(), len(paths), 0,
		func(_ context.Context, i int) (*imgutil.RGB, error) {
			return loadImage(paths[i])
		})
	if err != nil {
		return nil, nil, err
	}
	return images, labels, nil
}

func countClasses(labels []int) int {
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}

// runProfiles manages persisted calibration profiles: list a directory,
// show one profile's metadata and tables, verify integrity (CRC,
// canonical re-encode, restorability).
func runProfiles(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: deepn-jpeg profiles <list|show|verify> [flags]")
	}
	sub, rest := args[0], args[1:]
	// The hub-facing lifecycle verbs live in hub.go with their own flag
	// sets.
	switch sub {
	case "push":
		return runProfilesPush(rest)
	case "pull":
		return runProfilesPull(rest)
	case "sign":
		return runProfilesSign(rest)
	case "diff":
		return runProfilesDiff(rest)
	case "gc":
		return runProfilesGC(rest)
	}
	fs := flag.NewFlagSet("profiles "+sub, flag.ExitOnError)
	dir := fs.String("dir", "", "profile directory")
	in := fs.String("in", "", "single profile file")
	switch sub {
	case "list":
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *dir == "" {
			return fmt.Errorf("profiles list needs -dir")
		}
		// An unreadable directory is a hard error (a typo must not read
		// as "empty registry"); individual corrupt files are warnings —
		// the healthy remainder still lists.
		if st, err := os.Stat(*dir); err != nil {
			return err
		} else if !st.IsDir() {
			return fmt.Errorf("%s is not a directory", *dir)
		}
		reg, err := profile.OpenRegistry(*dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "deepn-jpeg: warning:", err)
		}
		ps := reg.List()
		if len(ps) == 0 {
			fmt.Printf("no profiles in %s\n", *dir)
			return nil
		}
		fmt.Printf("%-24s %-7s %-7s %-20s %s\n", "PROFILE", "SAMPLED", "CHROMA", "CREATED", "COMMENT")
		for _, p := range ps {
			fmt.Printf("%-24s %-7d %-7v %-20s %s\n", p.Ref(), p.SampledCount,
				p.ChromaCalibrated, time.Unix(p.CreatedUnix, 0).UTC().Format("2006-01-02 15:04:05"), p.Comment)
		}
		return nil
	case "show":
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *in == "" {
			return fmt.Errorf("profiles show needs -in")
		}
		p, err := profile.Read(*in)
		if err != nil {
			return err
		}
		fmt.Printf("%s: profile %s\n", *in, p.Ref())
		fmt.Printf("created:    %s\n", time.Unix(p.CreatedUnix, 0).UTC().Format(time.RFC3339))
		fmt.Printf("sampled:    %d images (%d blocks)\n", p.SampledCount, p.LumaStats.Blocks)
		fmt.Printf("chroma:     calibrated=%v\n", p.ChromaCalibrated)
		if p.Comment != "" {
			fmt.Printf("comment:    %s\n", p.Comment)
		}
		fmt.Printf("PLM: a=%.1f b=%.1f c=%.1f k1=%.3f k2=%.3f k3=%.3f T1=%.2f T2=%.2f Qmin=%.0f\n",
			p.Params.A, p.Params.B, p.Params.C, p.Params.K1, p.Params.K2, p.Params.K3,
			p.Params.T1, p.Params.T2, p.Params.QMin)
		fmt.Println("\nluminance table:")
		fmt.Print(p.Luma.String())
		fmt.Println("\nchrominance table:")
		fmt.Print(p.Chroma.String())
		return nil
	case "verify":
		if err := fs.Parse(rest); err != nil {
			return err
		}
		var files []string
		switch {
		case *in != "":
			files = []string{*in}
		case *dir != "":
			names, err := listInputs(*dir, profile.Ext)
			if err != nil {
				return err
			}
			for _, n := range names {
				files = append(files, filepath.Join(*dir, n))
			}
		default:
			return fmt.Errorf("profiles verify needs -in or -dir")
		}
		if len(files) == 0 {
			return fmt.Errorf("no profile files (%s) to verify", profile.Ext)
		}
		bad := 0
		for _, f := range files {
			if err := verifyProfileFile(f); err != nil {
				bad++
				fmt.Printf("%-40s FAIL: %v\n", f, err)
				continue
			}
			fmt.Printf("%-40s OK\n", f)
		}
		if bad > 0 {
			return fmt.Errorf("%d of %d profile(s) failed verification", bad, len(files))
		}
		return nil
	default:
		return fmt.Errorf("unknown profiles subcommand %q (want list, show, verify, push, pull, sign, diff or gc)", sub)
	}
}

// verifyProfileFile runs the full integrity check on one profile file:
// decode (magic, structure, CRC), canonical re-encode byte-identity, and
// codec restorability.
func verifyProfileFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	p, err := profile.Decode(data)
	if err != nil {
		return err
	}
	again, err := p.Encode()
	if err != nil {
		return fmt.Errorf("re-encode: %w", err)
	}
	if !bytes.Equal(data, again) {
		return fmt.Errorf("re-encode is not byte-identical (non-canonical file)")
	}
	if _, err := deepnjpeg.NewCodecFromProfile(p); err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	return nil
}

// loadImage reads PPM/PGM/PNG/JPEG by extension.
func loadImage(path string) (*imgutil.RGB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".ppm":
		return imgutil.ReadPPM(bytes.NewReader(data))
	case ".pgm":
		g, err := imgutil.ReadPGM(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return g.ToRGB(), nil
	case ".png":
		img, err := png.Decode(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return imgutil.FromImage(img), nil
	case ".jpg", ".jpeg":
		return deepnjpeg.Decode(data)
	default:
		return nil, fmt.Errorf("unsupported input format %q", filepath.Ext(path))
	}
}

// saveImage writes PPM/PGM/PNG by extension.
func saveImage(path string, im *imgutil.RGB) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".ppm":
		return imgutil.WritePPM(f, im)
	case ".pgm":
		return imgutil.WritePGM(f, im.ToGray())
	case ".png":
		return png.Encode(f, im.ToImage())
	default:
		return fmt.Errorf("unsupported output format %q", filepath.Ext(path))
	}
}

func runEncode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	in := fs.String("in", "", "input image (ppm/pgm/png/jpg)")
	out := fs.String("out", "", "output JPEG path")
	qf := fs.Int("qf", 85, "JPEG quality factor (standard tables)")
	deepn := fs.Bool("deepn", false, "use a DeepN-JPEG table calibrated on SynthNet")
	sub := fs.String("subsampling", "420", "chroma subsampling: 420, 444, 422, 440 or 411")
	optimize := fs.Bool("optimize", false, "optimized Huffman tables")
	workers := fs.Int("workers", 0, "worker-pool size for directory encoding (0 = GOMAXPROCS)")
	restart := fs.Int("restart", 0, "insert RSTn markers every n MCUs (0 = none; enables single-image parallel coding)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("encode needs -in and -out")
	}
	opts := jpegcodec.Options{OptimizeHuffman: *optimize, RestartInterval: *restart}
	var err error
	if opts.Subsampling, err = jpegcodec.ParseSubsampling(*sub); err != nil {
		return fmt.Errorf("bad -subsampling %q", *sub)
	}
	if *deepn {
		codec, err := synthNetCodec(false)
		if err != nil {
			return err
		}
		opts.LumaTable = codec.LumaTable()
		opts.ChromaTable = codec.ChromaTable()
	} else {
		if opts.LumaTable, err = qtable.Scale(qtable.StdLuminance, *qf); err != nil {
			return err
		}
		if opts.ChromaTable, err = qtable.Scale(qtable.StdChrominance, *qf); err != nil {
			return err
		}
	}
	if st, err := os.Stat(*in); err == nil && st.IsDir() {
		return encodeDir(*in, *out, *workers, opts)
	}
	img, err := loadImage(*in)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := jpegcodec.EncodeRGB(&buf, img, &opts); err != nil {
		return err
	}
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	back, err := deepnjpeg.Decode(buf.Bytes())
	if err != nil {
		return err
	}
	psnr, err := deepnjpeg.PSNR(img, back)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %dx%d → %d bytes (%.2f bpp), PSNR %.2f dB\n",
		*out, img.W, img.H, buf.Len(), 8*float64(buf.Len())/float64(img.W*img.H), psnr)
	return nil
}

// encodeDir batch-encodes every supported image in inDir onto outDir
// through the concurrent pipeline. Output files keep their base name
// with a .jpg extension; failures are reported per item at the end
// without aborting the rest of the batch.
func encodeDir(inDir, outDir string, workers int, opts jpegcodec.Options) error {
	inputs, err := listInputs(inDir, ".ppm", ".pgm", ".png", ".jpg", ".jpeg")
	if err != nil {
		return err
	}
	if len(inputs) == 0 {
		return fmt.Errorf("no encodable images (ppm/pgm/png/jpg) in %s", inDir)
	}
	if err := checkOutputCollisions(inputs, ".jpg"); err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var inBytes, outBytes, okCount atomic.Int64
	start := time.Now()
	err = pipeline.Run(context.Background(), len(inputs), workers, func(_ context.Context, i int) error {
		img, err := loadImage(filepath.Join(inDir, inputs[i]))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		o := opts
		if err := jpegcodec.EncodeRGB(&buf, img, &o); err != nil {
			return err
		}
		name := strings.TrimSuffix(inputs[i], filepath.Ext(inputs[i])) + ".jpg"
		if err := os.WriteFile(filepath.Join(outDir, name), buf.Bytes(), 0o644); err != nil {
			return err
		}
		inBytes.Add(int64(3 * img.W * img.H))
		outBytes.Add(int64(buf.Len()))
		okCount.Add(1)
		return nil
	})
	elapsed := time.Since(start)
	ok := okCount.Load()
	fmt.Printf("%s: encoded %d/%d images from %s (workers=%d) in %v (%.1f MB raw → %.1f MB jpeg, %.1f images/s)\n",
		outDir, ok, len(inputs), inDir, pipeline.Workers(workers, len(inputs)), elapsed.Round(time.Millisecond),
		float64(inBytes.Load())/1e6, float64(outBytes.Load())/1e6,
		float64(ok)/elapsed.Seconds())
	return err
}

func runDecode(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	in := fs.String("in", "", "input JPEG or directory")
	out := fs.String("out", "", "output image (ppm/pgm/png) or directory")
	format := fs.String("format", "png", "output format for directory decoding: png, ppm or pgm")
	workers := fs.Int("workers", 0, "worker-pool size for directory decoding (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("decode needs -in and -out")
	}
	if st, err := os.Stat(*in); err == nil && st.IsDir() {
		return decodeDir(*in, *out, *format, *workers)
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	img, err := deepnjpeg.Decode(data)
	if err != nil {
		return err
	}
	if err := saveImage(*out, img); err != nil {
		return err
	}
	fmt.Printf("%s: %dx%d\n", *out, img.W, img.H)
	return nil
}

// decodeDir batch-decodes every JPEG in inDir onto outDir through the
// concurrent pipeline, with the same output-collision detection and
// partial-failure reporting as encodeDir.
func decodeDir(inDir, outDir, format string, workers int) error {
	switch format {
	case "png", "ppm", "pgm":
	default:
		return fmt.Errorf("bad -format %q (want png, ppm or pgm)", format)
	}
	outExt := "." + format
	inputs, err := listInputs(inDir, ".jpg", ".jpeg")
	if err != nil {
		return err
	}
	if len(inputs) == 0 {
		return fmt.Errorf("no JPEGs (jpg/jpeg) in %s", inDir)
	}
	if err := checkOutputCollisions(inputs, outExt); err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var pixels, okCount atomic.Int64
	start := time.Now()
	err = pipeline.Run(context.Background(), len(inputs), workers, func(_ context.Context, i int) error {
		data, err := os.ReadFile(filepath.Join(inDir, inputs[i]))
		if err != nil {
			return err
		}
		img, err := deepnjpeg.Decode(data)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(inputs[i], filepath.Ext(inputs[i])) + outExt
		if err := saveImage(filepath.Join(outDir, name), img); err != nil {
			return err
		}
		pixels.Add(int64(img.W * img.H))
		okCount.Add(1)
		return nil
	})
	elapsed := time.Since(start)
	ok := okCount.Load()
	fmt.Printf("%s: decoded %d/%d JPEGs from %s (workers=%d) in %v (%.1f MP, %.1f images/s)\n",
		outDir, ok, len(inputs), inDir, pipeline.Workers(workers, len(inputs)), elapsed.Round(time.Millisecond),
		float64(pixels.Load())/1e6, float64(ok)/elapsed.Seconds())
	return err
}

func runInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "", "input JPEG")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("inspect needs -in")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	// The marker walk is decode-free, so it reports structure even for
	// streams the decoder rejects (arithmetic coding, lossless, …).
	info, ierr := jpegcodec.Inspect(bytes.NewReader(data))
	for _, seg := range info.Segments {
		fmt.Printf("%8d  %-40s", seg.Offset, seg.Name)
		if seg.Length >= 0 {
			fmt.Printf(" %6d bytes", seg.Length)
		}
		if seg.Detail != "" {
			fmt.Printf("  %s", seg.Detail)
		}
		fmt.Println()
	}
	if ierr != nil {
		return ierr
	}
	if info.Frame != nil && !info.Frame.Supported {
		fmt.Printf("\ncoding process not supported by this decoder (%s); marker structure only\n", info.Frame.Name)
		return nil
	}
	dec := new(jpegcodec.Decoded)
	if err := jpegcodec.DecodeBytes(data, dec, nil); err != nil {
		return err
	}
	fmt.Printf("\n%s: %dx%d, %d component(s), %v", *in, dec.W, dec.H, dec.Components, dec.Sampling)
	if dec.Progressive {
		fmt.Printf(", progressive (%d scans)", len(info.Scans))
	}
	if dec.RestartInterval > 0 {
		fmt.Printf(", restart interval %d", dec.RestartInterval)
	}
	fmt.Println()
	for id, tbl := range dec.QuantTables {
		fmt.Printf("\nquantization table %d (mean step %.1f):\n%s", id, tbl.Mean(), tbl.String())
	}
	return nil
}

// parseTenants parses the -api-keys flag: comma-separated key[:limit]
// entries, e.g. "edge-fleet:8,dashboard:2,backfill".
func parseTenants(spec string, defaultLimit int) (map[string]deepnjpeg.TenantLimits, error) {
	if spec == "" {
		return nil, nil
	}
	tenants := make(map[string]deepnjpeg.TenantLimits)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		key, limitStr, hasLimit := strings.Cut(entry, ":")
		if key == "" {
			return nil, fmt.Errorf("empty API key in -api-keys entry %q", entry)
		}
		limit := defaultLimit
		if hasLimit {
			n, err := strconv.Atoi(limitStr)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad in-flight limit in -api-keys entry %q", entry)
			}
			limit = n
		}
		if _, dup := tenants[key]; dup {
			return nil, fmt.Errorf("duplicate API key %q in -api-keys", key)
		}
		tenants[key] = deepnjpeg.TenantLimits{MaxInFlight: limit}
	}
	return tenants, nil
}

// runServe serves the codec over HTTP until SIGINT/SIGTERM, then drains
// in-flight requests before exiting. With -profile the default table set
// loads from a persisted profile — no startup calibration at all;
// without it the server calibrates on SynthNet at boot (the historical
// behavior, and the slow path -profile exists to avoid).
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	chroma := fs.Bool("chroma", false, "also calibrate a chroma table (SynthNet boot only)")
	workers := fs.Int("workers", 0, "per-request batch worker-pool size (0 = GOMAXPROCS)")
	maxBody := fs.Int64("max-body", 32<<20, "request body cap in bytes (413 beyond)")
	maxPixels := fs.Int("max-pixels", 1<<24, "declared image dimension cap in pixels")
	maxBatch := fs.Int("max-batch-items", 256, "part-count cap of one /v1/batch request")
	maxInFlight := fs.Int("max-in-flight", 16, "per-tenant concurrent request cap (429 beyond)")
	apiKeys := fs.String("api-keys", "", "comma-separated key[:limit] tenants (empty = open access)")
	profileDir := fs.String("profile-dir", "", "directory of calibration profiles (*.dnp) to serve")
	profileRef := fs.String("profile", "", "default profile (name or name@version) from -profile-dir; skips startup calibration")
	profileWatch := fs.Duration("profile-watch", 0, "poll -profile-dir at this interval and hot-reload changes (0 = off)")
	adminKey := fs.String("admin-key", "", "API key required by /admin endpoints (empty = any tenant)")
	hubOrigin := fs.String("hub-origin", "", "profile hub origin URL; missing profiles (including -profile at boot) pull from it")
	hubCache := fs.String("hub-cache", "", "hub client cache directory (default: <profile-dir>/.hub-cache)")
	hubPub := fs.String("hub-pub", "", "trusted Ed25519 public key file; require signed hub indexes and profiles")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown drain timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tenants, err := parseTenants(*apiKeys, *maxInFlight)
	if err != nil {
		return err
	}
	if *profileRef != "" && *profileDir == "" {
		return fmt.Errorf("-profile requires -profile-dir")
	}
	if *hubOrigin != "" {
		if *profileDir == "" {
			return fmt.Errorf("-hub-origin requires -profile-dir")
		}
		// A hub-backed fleet node may legitimately start with nothing
		// local at all — the directory only has to exist.
		if err := os.MkdirAll(*profileDir, 0o755); err != nil {
			return err
		}
	}
	opts := deepnjpeg.ServerOptions{
		MaxBodyBytes:   *maxBody,
		MaxPixels:      *maxPixels,
		BatchWorkers:   *workers,
		MaxBatchItems:  *maxBatch,
		Tenants:        tenants,
		MaxInFlight:    *maxInFlight,
		ProfileDir:     *profileDir,
		DefaultProfile: *profileRef,
		ProfileWatch:   *profileWatch,
		AdminKey:       *adminKey,
		HubOrigin:      *hubOrigin,
		HubCacheDir:    *hubCache,
	}
	if *hubPub != "" {
		if opts.HubTrustedKey, err = profilehub.ReadPublicKeyFile(*hubPub); err != nil {
			return err
		}
	}
	var codec *deepnjpeg.Codec
	startLoad := time.Now()
	if *profileRef == "" {
		// No profile: calibrate on SynthNet at boot, as before.
		if codec, err = synthNetCodec(*chroma); err != nil {
			return err
		}
	}
	srv, err := deepnjpeg.NewServer(codec, opts)
	if err != nil {
		return err
	}
	if *profileRef != "" {
		// Report what actually resolved (a bare name picks the highest
		// version) and how fast the profile path boots compared to a
		// calibration pass.
		sp := srv.ServingProfile()
		fmt.Printf("deepn-jpeg serve: profile %s@%d (%d-image calibration) loaded in %v — startup calibration skipped\n",
			sp.Name, sp.Version, sp.SampledCount, time.Since(startLoad).Round(time.Millisecond))
	} else {
		fmt.Printf("deepn-jpeg serve: SynthNet calibration in %v (persist it with `deepn-jpeg calibrate -out` and boot with -profile to skip this)\n",
			time.Since(startLoad).Round(time.Millisecond))
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	access := "open access"
	if len(tenants) > 0 {
		access = fmt.Sprintf("%d tenant(s)", len(tenants))
	}
	fmt.Printf("deepn-jpeg serve: listening on %s (%s, batch workers=%d)\n",
		l.Addr(), access, pipeline.Workers(*workers, -1))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "deepn-jpeg serve: draining in-flight requests")
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	if err := srv.Serve(l); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Serve only returns ErrServerClosed once Shutdown has been called,
	// so the drain goroutine is active: block until it finishes draining
	// (or times out) before letting the process exit.
	signal.Stop(sig)
	return <-done
}
