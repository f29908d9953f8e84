// Package energy models the data-offloading cost of an edge device, the
// quantity Fig. 9 of the paper reports. Link throughputs are calibrated so
// that uploading the paper's reference 152 KB JPEG takes 870 ms over 3G,
// 180 ms over LTE and 95 ms over Wi-Fi (the Neurosurgeon measurements the
// paper cites), and transfer energy is radio power × air time. DNN compute
// energy is modeled per multiply-accumulate so offloading can be compared
// against on-device inference.
package energy

import (
	"fmt"
	"time"
)

// ReferenceImageBytes is the compressed image size used in the paper's
// latency discussion (152 KB).
const ReferenceImageBytes = 152 * 1024

// Link models one wireless uplink.
type Link struct {
	Name string
	// ThroughputBps is the effective uplink rate in bytes per second.
	ThroughputBps float64
	// RadioPowerW is the radio's active transmit power draw in watts.
	RadioPowerW float64
}

// The three links of the paper's motivating example. Throughput derives
// from the 152 KB / latency calibration; radio powers are representative
// smartphone measurements (3G is slowest and, per byte, hungriest).
var (
	ThreeG = Link{Name: "3G", ThroughputBps: ReferenceImageBytes / 0.870, RadioPowerW: 1.2}
	LTE    = Link{Name: "LTE", ThroughputBps: ReferenceImageBytes / 0.180, RadioPowerW: 1.8}
	WiFi   = Link{Name: "Wi-Fi", ThroughputBps: ReferenceImageBytes / 0.095, RadioPowerW: 0.9}
)

// TransferLatency returns the air time for a payload.
func (l Link) TransferLatency(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	sec := float64(bytes) / l.ThroughputBps
	return time.Duration(sec * float64(time.Second))
}

// TransferEnergy returns the radio energy in joules for a payload.
func (l Link) TransferEnergy(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return l.RadioPowerW * float64(bytes) / l.ThroughputBps
}

// Compute models on-device DNN arithmetic energy.
type Compute struct {
	// JoulesPerMAC is the energy of one multiply-accumulate including
	// memory traffic; ~1 nJ is representative of a mobile-class SoC.
	JoulesPerMAC float64
}

// DefaultCompute returns the 1 nJ/MAC mobile-SoC model.
func DefaultCompute() Compute { return Compute{JoulesPerMAC: 1e-9} }

// Energy returns the joules to execute the given MAC count.
func (c Compute) Energy(macs int64) float64 {
	if macs <= 0 {
		return 0
	}
	return c.JoulesPerMAC * float64(macs)
}

// SchemeBytes records the total compressed dataset size produced by one
// compression scheme.
type SchemeBytes struct {
	Scheme string
	Bytes  int64
}

// NormalizedPower computes per-scheme offloading power relative to the
// named baseline — the Fig. 9 presentation. Transfer energy is linear in
// bytes for a fixed link, so the normalized figure is link-independent.
func NormalizedPower(sizes []SchemeBytes, baseline string) (map[string]float64, error) {
	var base int64 = -1
	for _, s := range sizes {
		if s.Scheme == baseline {
			base = s.Bytes
		}
	}
	if base < 0 {
		return nil, fmt.Errorf("energy: baseline scheme %q not in sizes", baseline)
	}
	if base == 0 {
		return nil, fmt.Errorf("energy: baseline scheme %q has zero bytes", baseline)
	}
	out := make(map[string]float64, len(sizes))
	for _, s := range sizes {
		out[s.Scheme] = float64(s.Bytes) / float64(base)
	}
	return out, nil
}
