// Package arch describes the three hardware platforms of the paper's
// evaluation (Table I) and models their instruction-mix behaviour: the
// throughput of mixed FMA / sine-cosine workloads (Fig. 12), which is
// the property that separates the platforms. Haswell evaluates
// sine/cosine in software (SVML), Fiji on the regular ALUs at reduced
// rate, and Pascal on dedicated special function units (SFUs) that
// overlap with the FMA pipeline.
//
// Since this reproduction runs on commodity hardware rather than the
// DAS-5 cluster, the per-platform performance constants are taken from
// Table I and the calibration constants (sincos slot costs, kernel
// power draws) are fitted to the results the paper reports; the
// perfmodel and energy packages then *derive* every figure from these
// constants plus exact operation counts. EXPERIMENTS.md documents the
// calibration.
package arch

import "fmt"

// SincosImpl describes where a platform evaluates sine/cosine pairs.
type SincosImpl int

const (
	// SincosSoftwareALU evaluates sincos on the FMA ALUs (Haswell via
	// SVML, Fiji via the native instruction set at reduced rate).
	SincosSoftwareALU SincosImpl = iota
	// SincosHardwareSFU evaluates sincos on special function units
	// that run concurrently with the FMA pipeline (Pascal).
	SincosHardwareSFU
)

// Platform is one row of Table I plus the calibrated model constants.
type Platform struct {
	Name         string // short name used in the figures
	Model        string // full product name
	Type         string // "CPU" or "GPU"
	Architecture string

	// Core configuration (Table I): #ICs x #compute units x FPU
	// instructions/cycle x vector size = #FPUs.
	ClockGHz        float64
	NrICs           int
	NrComputeUnits  int
	FPUInstrPerCyc  int
	VectorSize      int
	PeakTFlops      float64 // single precision, FMA-counted
	MemGB           float64
	MemBandwidthGBs float64
	TDPWatts        float64

	// GPU-only properties.
	SharedBandwidthGBs float64 // software-managed cache bandwidth
	PCIeGBs            float64 // host link bandwidth

	// Sine/cosine model (Section VI-C).
	Sincos SincosImpl
	// SincosSlots is the number of FMA-issue slots one sincos-pair
	// evaluation consumes on the ALU path (per SIMD lane group).
	SincosSlots float64
	// SFUSlots is the SFU-queue occupancy of one sincos pair, in
	// FMA-slot units (hardware path only).
	SFUSlots float64
	// SFUIssueSlots is the FMA-issue overhead of dispatching one
	// sincos pair to the SFUs.
	SFUIssueSlots float64

	// Energy model: measured power draw while running the IDG kernels
	// (device only for GPUs; package+DRAM for the CPU), plus the host
	// contribution for GPU platforms (Fig. 14 includes the host).
	KernelPowerWatts float64
	HostPowerWatts   float64
}

// NrFPUs returns the FPU count of the core configuration column.
func (p *Platform) NrFPUs() int {
	return p.NrICs * p.NrComputeUnits * p.FPUInstrPerCyc * p.VectorSize
}

// PeakOpsPerSec returns the peak throughput in the paper's "ops"
// (+, -, *, sin, cos): attained only with pure FMA streams, where one
// FMA counts as two ops.
func (p *Platform) PeakOpsPerSec() float64 {
	return p.PeakTFlops * 1e12
}

// Haswell returns the dual-socket Intel Xeon E5-2697v3 system
// (HASWELL in the paper).
func Haswell() *Platform {
	return &Platform{
		Name: "HASWELL", Model: "Intel Xeon E5-2697v3", Type: "CPU",
		Architecture: "Haswell-EP",
		ClockGHz:     2.60, // turbo-rated peak is used for PeakTFlops
		NrICs:        2, NrComputeUnits: 14, FPUInstrPerCyc: 2, VectorSize: 8,
		PeakTFlops: 2.78, MemGB: 256, MemBandwidthGBs: 136, TDPWatts: 290,
		Sincos: SincosSoftwareALU,
		// SVML medium accuracy: ~36 cycles per 8-lane sincos pair; the
		// core dual-issues FMAs, so that is 72 FMA-issue slots.
		SincosSlots: 72,
		// LIKWID package+DRAM power under the IDG kernel load.
		KernelPowerWatts: 350,
	}
}

// Fiji returns the AMD R9 Fury X system (FIJI).
func Fiji() *Platform {
	return &Platform{
		Name: "FIJI", Model: "AMD R9 Fury X", Type: "GPU",
		Architecture: "Fiji",
		ClockGHz:     1.05,
		NrICs:        1, NrComputeUnits: 64, FPUInstrPerCyc: 1, VectorSize: 64,
		PeakTFlops: 8.60, MemGB: 4, MemBandwidthGBs: 512, TDPWatts: 275,
		SharedBandwidthGBs: 4300, // LDS: 64 B/cycle/CU x 64 CUs x 1.05 GHz
		PCIeGBs:            12,
		Sincos:             SincosSoftwareALU,
		// sin and cos each run at a quarter of the FMA rate on the
		// ALUs, plus software range reduction.
		SincosSlots:      20,
		KernelPowerWatts: 305, HostPowerWatts: 80,
	}
}

// Pascal returns the NVIDIA GTX 1080 system (PASCAL).
func Pascal() *Platform {
	return &Platform{
		Name: "PASCAL", Model: "NVIDIA GTX 1080", Type: "GPU",
		Architecture: "Pascal",
		ClockGHz:     1.80,
		NrICs:        1, NrComputeUnits: 40, FPUInstrPerCyc: 2, VectorSize: 32,
		PeakTFlops: 9.22, MemGB: 8, MemBandwidthGBs: 320, TDPWatts: 180,
		SharedBandwidthGBs: 4430, // 128 B/cycle/SM x 20 SMs x 1.73 GHz
		PCIeGBs:            12,
		Sincos:             SincosHardwareSFU,
		SFUSlots:           8, // SFU rate = 1/4 FMA rate, two ops per pair
		SFUIssueSlots:      2, // MUFU dispatch + range scaling issue cost
		KernelPowerWatts:   200, HostPowerWatts: 80,
	}
}

// HostLike returns a model of the commodity x86-64 machine this
// reproduction runs on, for rooflining the measured Go kernels against
// the same model that produces Fig. 10: cores CPU cores at a nominal
// 2.7 GHz, dual FMA issue, and vectors of lanes elements — the width of
// the tile bodies the measured kernels actually dispatched (4 for the
// 256-bit float64 tiles, 8 for the 512-bit float64 and the float32
// ones, 1 for the generic tiles; core.SIMDInfo.Lanes), so a ceiling is
// never stated for a lane width the run did not use. It is NOT part of
// Platforms(): the paper's figures stay exactly the three Table I
// systems.
//
// The sincos constant is calibrated to xmath.SincosFast (~86 cycles
// per scalar pair, ~172 dual-issue slots). Note the measured kernels
// can exceed this roofline: the phasor-rotation recurrence amortizes
// one sincos over up to 64 channels, raising the effective FMA/sincos
// ratio far beyond the rho = 17 the model assumes for the paper's
// kernels.
func HostLike(cores, lanes int) *Platform {
	cores, lanes = max(cores, 1), max(lanes, 1)
	return &Platform{
		Name: "HOST", Model: "generic x86-64 host", Type: "CPU",
		Architecture: "amd64",
		ClockGHz:     2.7,
		NrICs:        1, NrComputeUnits: cores, FPUInstrPerCyc: 2, VectorSize: lanes,
		// FMA-counted peak of the configuration above.
		PeakTFlops: float64(cores) * 2.7e9 * 2 * float64(lanes) * 2 / 1e12,
		MemGB:      8, MemBandwidthGBs: 20, TDPWatts: 95,
		Sincos:           SincosSoftwareALU,
		SincosSlots:      172,
		KernelPowerWatts: 65,
	}
}

// Platforms returns the three systems of Table I in the paper's order.
func Platforms() []*Platform {
	return []*Platform{Haswell(), Fiji(), Pascal()}
}

// ByName looks a platform up by its short name.
func ByName(name string) (*Platform, error) {
	for _, p := range Platforms() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("arch: unknown platform %q", name)
}

// MixFraction returns the fraction of PeakOpsPerSec attained by a
// workload mixing rho FMA operations per sincos-pair evaluation
// (Fig. 12). The paper's kernels have rho = 17 (Algorithms 1 and 2).
//
// ALU path: one unit of work (rho FMAs + 1 sincos) occupies
// rho + SincosSlots issue slots and produces 2*rho + 2 ops, so the
// fraction relative to 2 ops/slot peak is (rho+1) / (rho+SincosSlots).
//
// SFU path: the sincos occupies the SFU queue for SFUSlots while the
// FMAs continue to issue; the unit takes max(rho + SFUIssueSlots,
// SFUSlots) slots.
func (p *Platform) MixFraction(rho float64) float64 {
	if rho < 0 {
		panic(fmt.Sprintf("arch: negative rho %g", rho))
	}
	ops := 2*rho + 2
	var slots float64
	switch p.Sincos {
	case SincosHardwareSFU:
		slots = rho + p.SFUIssueSlots
		if p.SFUSlots > slots {
			slots = p.SFUSlots
		}
	default:
		slots = rho + p.SincosSlots
	}
	f := ops / (2 * slots)
	if f > 1 {
		f = 1
	}
	return f
}

// MixOpsPerSec returns the attainable ops/s for the given mix.
func (p *Platform) MixOpsPerSec(rho float64) float64 {
	return p.MixFraction(rho) * p.PeakOpsPerSec()
}

// KernelRho is the FMA/sincos ratio of the gridder and degridder
// kernels: 17 real FMAs per sincos-pair evaluation (Algorithm 1).
const KernelRho = 17
