// Package profile persists calibrated DeepN-JPEG state as named,
// versioned on-disk artifacts. The paper's contribution — a quantization
// table derived from dataset frequency statistics — is expensive to
// produce (a full statistics pass over the training set) and worth
// managing like any other model artifact: per dataset, per task,
// versioned, verifiable. A profile captures everything calibration
// produced: the luma/chroma quantization tables, the piece-wise linear
// mapping parameters, and the per-band coefficient statistics they were
// derived from, so a restored codec is indistinguishable from the one
// that was saved (encoded streams are byte-identical) and the statistics
// remain available for audits and re-fits.
//
// # On-disk format
//
// A profile file is a single self-describing binary blob (extension
// .dnp), all integers and IEEE-754 bit patterns big-endian, in this
// exact order:
//
//	magic "DNJP" | format uint16 | flags uint16
//	name (uint16 len + bytes) | version uint32 | created int64
//	comment (uint16 len + bytes) | engine uint8 | sampled uint32
//	luma table (64×uint16) | chroma table (64×uint16)
//	PLM params (10×float64 bits)
//	luma stats (int64 blocks + 4×64 float64 bits)
//	[chroma stats, when flag bit 0 is set]
//	crc32 (IEEE, over every preceding byte)
//
// The engine byte dates from when the block-transform engine was
// selectable: 0 named the naive DCT, 1 the AAN DCT. It selects nothing
// now — every profile restores onto the one engine the codec runs, and
// both engines emitted the same streams — but Decode still accepts only
// 0 or 1, and new profiles write 1.
//
// The encoding is canonical: a Profile always serializes to the same
// bytes, and Decode accepts exactly what Encode emits — no trailing
// data, no unknown flags, bit-exact floats — so decode→encode round
// trips are byte-identical and the CRC pins the whole artifact.
package profile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/freqstat"
	"repro/internal/plm"
	"repro/internal/qtable"
)

const (
	// Magic opens every profile file.
	Magic = "DNJP"
	// FormatVersion is the on-disk format revision this package writes.
	FormatVersion = 1
	// Ext is the conventional file extension registries scan for.
	Ext = ".dnp"

	// MaxNameLen and MaxCommentLen bound the variable-length fields so a
	// hostile header cannot demand unbounded allocation.
	MaxNameLen    = 64
	MaxCommentLen = 4096

	flagChromaCalibrated = 1 << 0
	knownFlags           = flagChromaCalibrated
)

// Sentinel errors, matched with errors.Is by callers that need to
// distinguish "not a profile" from "a damaged profile".
var (
	// ErrBadMagic marks data that is not a profile file at all.
	ErrBadMagic = errors.New("profile: bad magic (not a profile file)")
	// ErrFormatVersion marks a profile written by a newer format revision.
	ErrFormatVersion = errors.New("profile: unsupported format version")
	// ErrChecksum marks a structurally plausible profile whose CRC does
	// not cover its bytes — truncation or corruption in storage.
	ErrChecksum = errors.New("profile: checksum mismatch")
	// ErrCorrupt marks every other structural or semantic defect:
	// truncated fields, illegal names, invalid tables, non-finite
	// statistics, trailing bytes.
	ErrCorrupt = errors.New("profile: corrupt")
	// ErrNotFound marks a registry lookup that matched no profile.
	ErrNotFound = errors.New("profile: not found")
)

// Profile is one persisted calibration artifact.
type Profile struct {
	// Name identifies the calibration (typically the dataset or task);
	// see ValidateName for the accepted charset.
	Name string
	// Version distinguishes successive calibrations under one name;
	// registries resolve a bare name to the highest version. Must be ≥ 1.
	Version uint32
	// CreatedUnix is the creation time in Unix seconds, carried verbatim
	// (it participates in the canonical bytes but never in comparisons).
	CreatedUnix int64
	// Comment is free-form provenance (source dataset, trainer, ticket).
	Comment string
	// SampledCount is how many images the calibration pass consumed.
	SampledCount int
	// Luma and Chroma are the derived quantization tables.
	Luma, Chroma qtable.Table
	// ChromaCalibrated records whether Chroma was calibrated from chroma
	// statistics (true, ChromaStats present) or is the Annex-K fallback.
	ChromaCalibrated bool
	// Params is the fitted piece-wise linear mapping.
	Params plm.Params
	// LumaStats (always) and ChromaStats (when ChromaCalibrated) are the
	// per-band coefficient statistics the tables were derived from.
	LumaStats   *freqstat.Stats
	ChromaStats *freqstat.Stats

	// engineByte0 records a profile decoded with engine byte 0, so it
	// re-encodes to exactly the bytes it was read from (its CRC and its
	// hub content address stay valid). It changes nothing else.
	engineByte0 bool
}

// ValidateName checks a profile name: 1..MaxNameLen characters, lower-case
// letters, digits, '.', '_' and '-', starting with a letter or digit. The
// charset keeps names safe as file-name stems and unambiguous inside
// name@version references.
func ValidateName(name string) error {
	if len(name) == 0 || len(name) > MaxNameLen {
		return fmt.Errorf("profile: name must be 1..%d characters, got %d", MaxNameLen, len(name))
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case i > 0 && (c == '.' || c == '_' || c == '-'):
		default:
			return fmt.Errorf("profile: name %q: character %q at %d (want [a-z0-9][a-z0-9._-]*)", name, c, i)
		}
	}
	return nil
}

// Ref renders the profile's canonical name@version reference.
func (p *Profile) Ref() string {
	return fmt.Sprintf("%s@%d", p.Name, p.Version)
}

// FileName is the conventional file name a registry stores the profile
// under: <name>@<version>.dnp.
func (p *Profile) FileName() string { return p.Ref() + Ext }

// ParseRef splits a "name" or "name@version" reference. hasVersion
// reports whether an explicit version was given.
func ParseRef(ref string) (name string, version uint32, hasVersion bool, err error) {
	name, verStr, hasVersion := strings.Cut(ref, "@")
	if err := ValidateName(name); err != nil {
		return "", 0, false, err
	}
	if !hasVersion {
		return name, 0, false, nil
	}
	v, perr := strconv.ParseUint(verStr, 10, 32)
	if perr != nil || v == 0 {
		return "", 0, false, fmt.Errorf("profile: bad version in reference %q", ref)
	}
	return name, uint32(v), true, nil
}

// Validate checks every invariant the on-disk format guarantees. Encode
// refuses profiles that fail it; Decode rejects byte streams whose
// decoded fields would.
func (p *Profile) Validate() error {
	if err := ValidateName(p.Name); err != nil {
		return err
	}
	if p.Version == 0 {
		return fmt.Errorf("profile: version must be ≥ 1")
	}
	if len(p.Comment) > MaxCommentLen {
		return fmt.Errorf("profile: comment exceeds %d bytes", MaxCommentLen)
	}
	// Bound by int32 (not uint32) so the count round-trips identically on
	// 32-bit platforms, where int cannot hold the upper uint32 range.
	if p.SampledCount < 0 || p.SampledCount > math.MaxInt32 {
		return fmt.Errorf("profile: sampled count %d out of range", p.SampledCount)
	}
	if err := p.Luma.Validate(); err != nil {
		return fmt.Errorf("profile: luma table: %w", err)
	}
	if err := p.Chroma.Validate(); err != nil {
		return fmt.Errorf("profile: chroma table: %w", err)
	}
	for _, v := range [...]float64{p.Params.A, p.Params.B, p.Params.C, p.Params.K1,
		p.Params.K2, p.Params.K3, p.Params.T1, p.Params.T2, p.Params.QMin, p.Params.QMax} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("profile: non-finite PLM parameter %g", v)
		}
	}
	if p.LumaStats == nil {
		return fmt.Errorf("profile: luma statistics missing")
	}
	if err := validateStats(p.LumaStats); err != nil {
		return fmt.Errorf("profile: luma statistics: %w", err)
	}
	if p.ChromaCalibrated {
		if p.ChromaStats == nil {
			return fmt.Errorf("profile: chroma marked calibrated but statistics missing")
		}
		if err := validateStats(p.ChromaStats); err != nil {
			return fmt.Errorf("profile: chroma statistics: %w", err)
		}
	} else if p.ChromaStats != nil {
		return fmt.Errorf("profile: chroma statistics present but not marked calibrated")
	}
	return nil
}

func validateStats(s *freqstat.Stats) error {
	if s.Blocks < 0 {
		return fmt.Errorf("negative block count %d", s.Blocks)
	}
	for _, arr := range [...]*[64]float64{&s.Mean, &s.Std, &s.Min, &s.Max} {
		for _, v := range arr {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("non-finite value %g", v)
			}
		}
	}
	return nil
}

// Encode serializes the profile into its canonical bytes.
func (p *Profile) Encode() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	size := len(Magic) + 2 + 2 + // magic, format, flags
		2 + len(p.Name) + 4 + 8 + 2 + len(p.Comment) + 1 + 4 +
		2*qtable.BinarySize + 10*8 + freqstat.StatsBinarySize + 4
	if p.ChromaCalibrated {
		size += freqstat.StatsBinarySize
	}
	b := make([]byte, 0, size)
	b = append(b, Magic...)
	b = binary.BigEndian.AppendUint16(b, FormatVersion)
	var flags uint16
	if p.ChromaCalibrated {
		flags |= flagChromaCalibrated
	}
	b = binary.BigEndian.AppendUint16(b, flags)
	b = binary.BigEndian.AppendUint16(b, uint16(len(p.Name)))
	b = append(b, p.Name...)
	b = binary.BigEndian.AppendUint32(b, p.Version)
	b = binary.BigEndian.AppendUint64(b, uint64(p.CreatedUnix))
	b = binary.BigEndian.AppendUint16(b, uint16(len(p.Comment)))
	b = append(b, p.Comment...)
	engine := byte(1)
	if p.engineByte0 {
		engine = 0
	}
	b = append(b, engine)
	b = binary.BigEndian.AppendUint32(b, uint32(p.SampledCount))
	b = p.Luma.AppendBinary(b)
	b = p.Chroma.AppendBinary(b)
	for _, v := range [...]float64{p.Params.A, p.Params.B, p.Params.C, p.Params.K1,
		p.Params.K2, p.Params.K3, p.Params.T1, p.Params.T2, p.Params.QMin, p.Params.QMax} {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = p.LumaStats.AppendBinary(b)
	if p.ChromaCalibrated {
		b = p.ChromaStats.AppendBinary(b)
	}
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return b, nil
}

// Decode parses canonical profile bytes, rejecting anything Encode would
// not have produced. The returned profile re-encodes to exactly data.
func Decode(data []byte) (*Profile, error) {
	r := &reader{b: data}
	if string(r.take(len(Magic))) != Magic {
		return nil, ErrBadMagic
	}
	if format := r.uint16(); r.err == nil && format != FormatVersion {
		return nil, fmt.Errorf("%w: %d (this build reads %d)", ErrFormatVersion, format, FormatVersion)
	}
	flags := r.uint16()
	if r.err == nil && flags&^knownFlags != 0 {
		return nil, fmt.Errorf("%w: unknown flag bits %#x", ErrCorrupt, flags&^knownFlags)
	}
	p := &Profile{ChromaCalibrated: flags&flagChromaCalibrated != 0}
	p.Name = string(r.varBytes(MaxNameLen))
	p.Version = r.uint32()
	p.CreatedUnix = int64(r.uint64())
	p.Comment = string(r.varBytes(MaxCommentLen))
	engine := r.byte()
	p.engineByte0 = engine == 0
	p.SampledCount = int(r.uint32())
	p.Luma = r.table()
	p.Chroma = r.table()
	for _, dst := range [...]*float64{&p.Params.A, &p.Params.B, &p.Params.C, &p.Params.K1,
		&p.Params.K2, &p.Params.K3, &p.Params.T1, &p.Params.T2, &p.Params.QMin, &p.Params.QMax} {
		*dst = math.Float64frombits(r.uint64())
	}
	p.LumaStats = r.stats()
	if p.ChromaCalibrated {
		p.ChromaStats = r.stats()
	}
	payload := len(data) - len(r.b) // bytes consumed so far = CRC coverage
	sum := r.uint32()
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.b))
	}
	if want := crc32.ChecksumIEEE(data[:payload]); sum != want {
		return nil, fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, sum, want)
	}
	if engine > 1 {
		return nil, fmt.Errorf("%w: engine byte %d (want 0 or 1)", ErrCorrupt, engine)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return p, nil
}

// Read loads and decodes a profile file.
func Read(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Write encodes the profile and writes it atomically (temp file + fsync
// + rename in the destination directory), so a registry scanning the
// directory never observes a half-written profile and a crash mid-write
// can never tear one.
func (p *Profile) Write(path string) error {
	data, err := p.Encode()
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data)
}

// WriteFileAtomic writes data to path crash-safely: a temp file in the
// same directory (rename across file systems is not atomic), fsynced
// before the rename so a power loss cannot publish a file whose bytes
// never reached disk, then renamed over path. Every profile artifact —
// .dnp blobs, .sig sidecars, hub-materialized pulls — goes through this
// one helper.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".dnp-tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		// CreateTemp opens 0600; published profiles are world-readable
		// artifacts like any other codec output.
		werr = tmp.Chmod(0o644)
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Meta carries the identity fields a caller chooses when persisting a
// calibrated framework.
type Meta struct {
	Name        string
	Version     uint32
	Comment     string
	CreatedUnix int64
}

// FromFramework captures a calibrated framework as a profile.
func FromFramework(fw *core.Framework, m Meta) (*Profile, error) {
	p := &Profile{
		Name:             m.Name,
		Version:          m.Version,
		CreatedUnix:      m.CreatedUnix,
		Comment:          m.Comment,
		SampledCount:     fw.SampledCount,
		Luma:             fw.LumaTable,
		Chroma:           fw.ChromaTable,
		ChromaCalibrated: fw.ChromaStats != nil,
		Params:           fw.Params,
		LumaStats:        fw.Stats,
		ChromaStats:      fw.ChromaStats,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Framework rebuilds the codec state the profile was saved from. The
// restored framework encodes byte-identical streams to the original.
func (p *Profile) Framework() (*core.Framework, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return core.Restore(p.Params, p.LumaStats, p.ChromaStats, p.Luma, p.Chroma, p.SampledCount)
}

// reader consumes the profile byte stream with sticky error state, so
// the decode path reads linearly and checks once.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.fail("truncated: need %d bytes, have %d", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) uint16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// varBytes reads a uint16-length-prefixed field bounded by max.
func (r *reader) varBytes(max int) []byte {
	n := int(r.uint16())
	if r.err != nil {
		return nil
	}
	if n > max {
		r.fail("field length %d exceeds limit %d", n, max)
		return nil
	}
	return r.take(n)
}

func (r *reader) table() qtable.Table {
	b := r.take(qtable.BinarySize)
	if b == nil {
		return qtable.Table{}
	}
	t, err := qtable.TableFromBinary(b)
	if err != nil {
		r.fail("%v", err)
	}
	return t
}

func (r *reader) stats() *freqstat.Stats {
	b := r.take(freqstat.StatsBinarySize)
	if b == nil {
		return nil
	}
	s, err := freqstat.StatsFromBinary(b)
	if err != nil {
		r.fail("%v", err)
		return nil
	}
	return s
}
