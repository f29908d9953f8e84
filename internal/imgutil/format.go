package imgutil

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	"image/png"
	"io"
	"math"
	"strings"
)

// ErrUnsupportedImage reports a body that is neither PNG, binary PPM (P6)
// nor binary PGM (P5).
var ErrUnsupportedImage = errors.New("imgutil: body is not PNG, PPM (P6) or PGM (P5)")

// TooLargeError reports an image whose header declares more pixels than
// the caller's cap, or a dimension that is not positive.
type TooLargeError struct {
	W, H, MaxPixels int
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("imgutil: %dx%d exceeds the %d-pixel limit", e.W, e.H, e.MaxPixels)
}

// ExceedsPixelCap reports whether a declared w×h frame is out of bounds
// for the pixel cap. Hostile headers can declare dimensions near the int
// range (a PNG field holds up to 2³¹−1), where the naive w*h product
// overflows int on 32-bit platforms and can wrap below the cap — so each
// dimension is bounded first and the product test is phrased as a
// division, which cannot overflow for any input.
func ExceedsPixelCap(w, h, maxPixels int) bool {
	if w <= 0 || h <= 0 {
		return true
	}
	return w > maxPixels || h > maxPixels || w > maxPixels/h
}

var pngMagic = []byte{0x89, 'P', 'N', 'G'}

// deflateMaxRatio bounds deflate's expansion: a 258-byte match costs at
// least two bits, so no stream inflates to more than 1032 bytes a byte.
const deflateMaxRatio = 1032

// DecodeImage decodes a PNG, binary PPM (P6) or binary PGM (P5) body,
// chosen by its magic bytes; any other body fails with
// ErrUnsupportedImage. A header that declares more than maxPixels pixels
// (≤ 0: no cap) fails with a *TooLargeError before any pixel buffer is
// allocated. A PNM body must hold every pixel byte its header declares
// (bytes past them are ignored), so a PNM allocates at most three bytes
// per body byte; a PPM's pixels alias data. A PNG body must be long enough
// to inflate to every row it declares: at most 8·1032 pixels a body byte.
func DecodeImage(data []byte, maxPixels int) (*RGB, error) {
	switch {
	case bytes.HasPrefix(data, pngMagic):
		cfg, err := png.DecodeConfig(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("imgutil: invalid PNG header: %w", err)
		}
		if maxPixels > 0 && ExceedsPixelCap(cfg.Width, cfg.Height, maxPixels) {
			return nil, &TooLargeError{cfg.Width, cfg.Height, maxPixels}
		}
		if pngExceedsBody(data, cfg.Width, cfg.Height) {
			return nil, fmt.Errorf("imgutil: a %d-byte PNG cannot inflate to the %dx%d image its header declares",
				len(data), cfg.Width, cfg.Height)
		}
		img, err := png.Decode(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("imgutil: invalid PNG: %w", err)
		}
		// Every image type png.Decode returns has RGBA64At.
		return FromImage(img.(image.RGBA64Image)), nil
	case bytes.HasPrefix(data, []byte("P6")):
		w, h, pix, err := decodePNM(data, 3, maxPixels)
		if err != nil {
			return nil, err
		}
		return &RGB{W: w, H: h, Pix: pix}, nil
	case bytes.HasPrefix(data, []byte("P5")):
		w, h, pix, err := decodePNM(data, 1, maxPixels)
		if err != nil {
			return nil, err
		}
		return (&Gray{W: w, H: h, Pix: pix}).ToRGB(), nil
	}
	return nil, ErrUnsupportedImage
}

// pngExceedsBody reports whether a PNG body is too short to inflate to the
// w×h image its header declares, which png.Decode would allocate first:
// each row, interlaced or not, inflates to a filter byte and its packed
// pixels at least. The test is a division, so it cannot overflow. An IHDR
// that is not the first chunk, as PNG requires, counts one bit a pixel.
func pngExceedsBody(data []byte, w, h int) bool {
	bits := uint64(1)
	if len(data) >= 26 && string(data[12:16]) == "IHDR" {
		bits = uint64(data[24]) // the bit depth, times the color type's channels
		switch data[25] {
		case 2: // RGB
			bits *= 3
		case 4: // gray and alpha
			bits *= 2
		case 6: // RGBA
			bits *= 4
		}
	}
	row := 1 + (uint64(w)*bits+7)/8
	return uint64(h) > uint64(len(data))*deflateMaxRatio/row
}

// decodePNM parses the header of a binary PNM body with ch bytes per
// pixel, its two-byte magic already matched: width, height and maxval
// (which must be 255), then the one whitespace byte that ends the header.
// The returned pixels alias data.
func decodePNM(data []byte, ch, maxPixels int) (w, h int, pix []uint8, err error) {
	w, i, err := pnmNumber(data, 2)
	if err != nil {
		return 0, 0, nil, err
	}
	h, i, err = pnmNumber(data, i)
	if err != nil {
		return 0, 0, nil, err
	}
	if maxPixels > 0 && ExceedsPixelCap(w, h, maxPixels) {
		return 0, 0, nil, &TooLargeError{w, h, maxPixels}
	}
	if w == 0 || h == 0 {
		return 0, 0, nil, fmt.Errorf("imgutil: invalid PNM dimensions %dx%d", w, h)
	}
	maxval, i, err := pnmNumber(data, i)
	if err != nil {
		return 0, 0, nil, err
	}
	if maxval != 255 {
		return 0, 0, nil, fmt.Errorf("imgutil: unsupported PNM maxval %d", maxval)
	}
	if i == len(data) || !isPNMSpace(data[i]) {
		return 0, 0, nil, errors.New("imgutil: PNM maxval not followed by one whitespace byte")
	}
	i++
	if ExceedsPixelCap(w, h, (len(data)-i)/ch) {
		return 0, 0, nil, fmt.Errorf("imgutil: short PNM pixel data: %dx%d at %d bytes per pixel, %d bytes after the header",
			w, h, ch, len(data)-i)
	}
	n := i + ch*w*h
	return w, h, data[i:n:n], nil
}

// pnmNumber reads the header number at or after data[i], the Netpbm way:
// whitespace, and '#' through the end of its line, go before it; its
// digits end at the first non-digit; a value too large for int saturates
// at math.MaxInt. It returns the number and the index just past it.
func pnmNumber(data []byte, i int) (v, next int, err error) {
	for i < len(data) && (isPNMSpace(data[i]) || data[i] == '#') {
		if data[i] == '#' {
			for i < len(data) && data[i] != '\n' && data[i] != '\r' {
				i++
			}
			continue
		}
		i++
	}
	start := i
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		d := int(data[i] - '0')
		if v > (math.MaxInt-d)/10 {
			v = math.MaxInt
		} else {
			v = v*10 + d
		}
	}
	switch {
	case i > start:
		return v, i, nil
	case i == len(data):
		return 0, i, errors.New("imgutil: truncated PNM header")
	default:
		return 0, i, fmt.Errorf("imgutil: malformed PNM header: %q at byte %d", data[i], i)
	}
}

func isPNMSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// Format is a body format EncodeImage writes.
type Format struct {
	Name        string // as ?format= and decode -format spell it
	ContentType string
	write       func(io.Writer, *RGB) error
}

// Formats lists the formats EncodeImage writes, the default (png) first.
var Formats = []Format{
	{"png", "image/png", func(w io.Writer, img *RGB) error { return png.Encode(w, img.ToImage()) }},
	{"ppm", "image/x-portable-pixmap", func(w io.Writer, img *RGB) error { return writePNM(w, "P6", img.W, img.H, img.Pix) }},
	{"pgm", "image/x-portable-graymap", func(w io.Writer, img *RGB) error {
		g := img.ToGray()
		return writePNM(w, "P5", g.W, g.H, g.Pix)
	}},
}

// FormatNamed returns the format in Formats called name.
func FormatNamed(name string) (Format, error) {
	for _, f := range Formats {
		if f.Name == name {
			return f, nil
		}
	}
	names := make([]string, len(Formats))
	for i, f := range Formats {
		names[i] = f.Name
	}
	return Format{}, fmt.Errorf("format %q is not one of %s", name, strings.Join(names, ", "))
}

// EncodeImage writes img to w in the format called format: "png", "ppm"
// (binary P6) or "pgm" (binary P5 of the image's luma, RGB.ToGray).
func EncodeImage(w io.Writer, img *RGB, format string) error {
	f, err := FormatNamed(format)
	if err != nil {
		return err
	}
	return f.write(w, img)
}

// writePNM writes a binary PNM body: its header, then pix.
func writePNM(w io.Writer, magic string, width, height int, pix []uint8) error {
	if _, err := fmt.Fprintf(w, "%s\n%d %d\n255\n", magic, width, height); err != nil {
		return err
	}
	_, err := w.Write(pix)
	return err
}
