package jpegcodec

// Progressive JPEG scan decoding (ITU-T T.81 Annex G, Huffman coding).
//
// A progressive frame splits its coefficient data across many scans
// along two axes. Spectral selection: each AC scan carries one zig-zag
// band Ss..Se of one component, while DC scans carry coefficient 0 only
// and may interleave components. Successive approximation: a "first"
// scan (Ah == 0) delivers coefficients at reduced precision — values
// shifted left by the point transform Al — and each refinement scan
// (Ah == Al+1) appends exactly one more magnitude bit. The frame's
// coefficient planes accumulate across scans and are complete after the
// last scan (decoder.finishFrame); pixels reconstruct from them once, on
// the first pixel read. That is also what lets Requantize transcode
// progressive inputs: by then the planes are in exactly the
// representation a baseline decode produces.
//
// The AC decoders carry an end-of-band run between blocks: an EOBn
// symbol (RRRR = n < 15, SSSS = 0) encodes a run of 2^n plus n appended
// bits of blocks, the current one included, whose band holds no further
// newly significant coefficients. In refinement scans a block inside an
// EOB run still consumes one correction bit per already-nonzero band
// coefficient (refineNonZeroes), so a truncated refinement scan fails
// loudly instead of silently skewing the image.
//
// The refinement logic follows the structure of the reference decoders
// (libjpeg's jdphuff.c, Go's image/jpeg): ZRL symbols skip 16
// zero-history coefficients, a (r,1) symbol places ±1<<Al on the
// (r+1)-th zero-history coefficient, and correction bits interleave with
// both.

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/qtable"
)

// scanProgressive routes one progressive scan over the frame's
// coefficient planes. DC scans (ss == 0) may interleave several
// components over the frame MCU grid; AC scans are always single-
// component and walk the component's unpadded block grid. Restart
// markers reset the DC predictors and the EOB run exactly as in
// baseline scans. Progressive entropy data always decodes sequentially
// (see shard.go for the baseline-only sharding guard).
func (d *decoder) scanProgressive(scomps []*component, ss, se, ah, al int) (byte, error) {
	f := &d.frame
	refine := ah != 0
	var dcTabs [4]*decTable
	var acTab *decTable
	if ss == 0 && !refine {
		for i, c := range scomps {
			if dcTabs[i] = d.huff[0<<2|c.td]; dcTabs[i] == nil {
				return 0, fmt.Errorf("jpegcodec: missing DC huffman table %d", c.td)
			}
		}
	}
	if ss > 0 {
		if acTab = d.huff[1<<2|scomps[0].ta]; acTab == nil {
			return 0, fmt.Errorf("jpegcodec: missing AC huffman table %d", scomps[0].ta)
		}
	}
	br := d.entropyReader()
	d.eobRun = 0
	var prevDC [4]int32
	rst := 0
	c0 := scomps[0]
	interleaved := len(scomps) > 1
	total, sbw := f.mcusX*f.mcusY, 0
	if !interleaved {
		// Single-component scans are non-interleaved regardless of frame
		// type: one block per MCU over the unpadded block grid.
		sbw = (c0.w + 7) / 8
		total = sbw * ((c0.hgt + 7) / 8)
	}
	for mcu := 0; mcu < total; mcu++ {
		if d.ri > 0 && mcu > 0 && mcu%d.ri == 0 {
			if err := d.scanRestart(&rst, &prevDC); err != nil {
				return 0, err
			}
		}
		if interleaved {
			// Interleaved scans are DC scans by construction (the header
			// validation rejects multi-component AC scans).
			my, mx := mcu/f.mcusX, mcu%f.mcusX
			for ci, c := range scomps {
				for vy := 0; vy < c.v; vy++ {
					for vx := 0; vx < c.h; vx++ {
						coefs := &c.coefs[(my*c.v+vy)*c.blocksX+mx*c.h+vx]
						var err error
						if refine {
							err = decodeDCRefine(br, coefs, al)
						} else {
							err = decodeDCFirst(br, dcTabs[ci], &prevDC[ci], al, coefs)
						}
						if err != nil {
							return 0, err
						}
					}
				}
			}
			continue
		}
		by, bx := mcu/sbw, mcu%sbw
		coefs := &c0.coefs[by*c0.blocksX+bx]
		var err error
		switch {
		case ss == 0 && !refine:
			err = decodeDCFirst(br, dcTabs[0], &prevDC[0], al, coefs)
		case ss == 0:
			err = decodeDCRefine(br, coefs, al)
		case !refine:
			err = d.decodeACFirst(br, acTab, ss, se, al, coefs)
		default:
			err = d.decodeACRefine(br, acTab, ss, se, al, coefs)
		}
		if err != nil {
			return 0, err
		}
	}
	return d.scanEnd(), nil
}

// decodeDCFirst decodes one block's worth of a DC first scan (G.1.2.1):
// ordinary DPCM on the point-transformed values, stored shifted left by
// Al so refinement scans can OR lower bits in.
func decodeDCFirst(br *bitio.Reader, tab *decTable, pred *int32, al int, coefs *[64]int32) error {
	s, err := tab.decode(br)
	if err != nil {
		return err
	}
	if s > 16 {
		return fmt.Errorf("jpegcodec: DC magnitude category %d out of range", s)
	}
	diff, err := receiveExtend(br, int(s))
	if err != nil {
		return err
	}
	*pred += diff
	coefs[0] = *pred << al
	return nil
}

// decodeDCRefine appends one precision bit to coefficient 0. OR-ing
// bit<<Al is correct for both signs: the first scan stored the
// arithmetically shifted value, and two's-complement negatives recover
// their low magnitude bits through OR exactly like positives.
func decodeDCRefine(br *bitio.Reader, coefs *[64]int32, al int) error {
	bit, err := br.ReadBit()
	if err != nil {
		return err
	}
	if bit != 0 {
		coefs[0] |= 1 << al
	}
	return nil
}

// readEOBRun decodes the length of an EOBn run — 2^r plus r appended
// bits — the count of consecutive blocks (the current one included)
// whose band carries no further newly significant coefficients.
func readEOBRun(br *bitio.Reader, r int) (int32, error) {
	run := int32(1) << r
	if r > 0 {
		bits, err := br.ReadBits(uint(r))
		if err != nil {
			return 0, err
		}
		run += int32(bits)
	}
	return run, nil
}

// decodeACFirst decodes one block of an AC first scan (G.1.2.2): the
// baseline run/size alphabet over the band ss..se, with EOBn symbols in
// place of plain EOB and values delivered at reduced precision (<<al).
func (d *decoder) decodeACFirst(br *bitio.Reader, tab *decTable, ss, se, al int, coefs *[64]int32) error {
	if d.eobRun > 0 {
		d.eobRun--
		return nil
	}
	for z := ss; z <= se; {
		sym, err := tab.decode(br)
		if err != nil {
			return err
		}
		r, s := int(sym>>4), int(sym&0x0F)
		if s == 0 {
			if r < 15 {
				run, err := readEOBRun(br, r)
				if err != nil {
					return err
				}
				d.eobRun = run - 1 // the run includes this block
				return nil
			}
			z += 16 // ZRL
			continue
		}
		z += r
		if z > se {
			return errors.New("jpegcodec: AC run overflows spectral band")
		}
		v, err := receiveExtend(br, s)
		if err != nil {
			return err
		}
		coefs[qtable.ZigZagOrder[z]] = v << al
		z++
	}
	return nil
}

// decodeACRefine decodes one block of an AC refinement scan (G.1.2.3):
// newly significant coefficients arrive as (run, ±1<<al) pairs measured
// in zero-history positions, and every already-nonzero coefficient the
// walk passes — including every one inside an EOB run — consumes a
// correction bit.
func (d *decoder) decodeACRefine(br *bitio.Reader, tab *decTable, ss, se, al int, coefs *[64]int32) error {
	delta := int32(1) << al
	z := ss
	if d.eobRun == 0 {
	loop:
		for ; z <= se; z++ {
			sym, err := tab.decode(br)
			if err != nil {
				return err
			}
			r, s := int(sym>>4), int(sym&0x0F)
			newVal := int32(0)
			switch s {
			case 0:
				if r < 15 {
					run, err := readEOBRun(br, r)
					if err != nil {
						return err
					}
					d.eobRun = run
					break loop // the tail below refines the rest of the band
				}
				// ZRL: r == 15 skips 16 zero-history coefficients (15 in
				// refineNonZeroes plus the one the loop increment passes).
			case 1:
				bit, err := br.ReadBit()
				if err != nil {
					return err
				}
				if bit != 0 {
					newVal = delta
				} else {
					newVal = -delta
				}
			default:
				return fmt.Errorf("jpegcodec: invalid AC refinement symbol %#02x", sym)
			}
			zn, err := refineNonZeroes(br, coefs, z, se, r, delta)
			if err != nil {
				return err
			}
			z = zn
			if z > se {
				return errors.New("jpegcodec: AC refinement run overflows spectral band")
			}
			if newVal != 0 {
				coefs[qtable.ZigZagOrder[z]] = newVal
			}
		}
	}
	if d.eobRun > 0 {
		d.eobRun--
		if _, err := refineNonZeroes(br, coefs, z, se, -1, delta); err != nil {
			return err
		}
	}
	return nil
}

// refineNonZeroes appends one correction bit to every already-nonzero
// coefficient of the zig-zag band [z, se], skipping nz zero-history
// entries (nz < 0 refines to the end of the band unconditionally). It
// returns the index it stopped at — the (nz+1)-th zero-history entry,
// where the caller places a newly significant coefficient.
func refineNonZeroes(br *bitio.Reader, coefs *[64]int32, z, se, nz int, delta int32) (int, error) {
	for ; z <= se; z++ {
		u := qtable.ZigZagOrder[z]
		if coefs[u] == 0 {
			if nz == 0 {
				break
			}
			nz--
			continue
		}
		bit, err := br.ReadBit()
		if err != nil {
			return 0, err
		}
		if bit == 0 {
			continue
		}
		if coefs[u] >= 0 {
			coefs[u] += delta
		} else {
			coefs[u] -= delta
		}
	}
	return z, nil
}
