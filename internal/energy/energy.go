// Package energy models the power and energy measurements of
// Section VI-D: LIKWID-style package+DRAM readings for the CPU and
// PowerSensor-style full-device readings for the GPUs, integrated over
// the modelled kernel runtimes. It regenerates the energy distribution
// of one imaging cycle (Fig. 14) and the per-kernel energy efficiency
// (Fig. 15).
package energy

import (
	"repro/internal/arch"
	"repro/internal/perfmodel"
)

// KernelEnergy is the modelled energy use of one kernel.
type KernelEnergy struct {
	Kernel   string
	Platform string
	Seconds  float64
	// DeviceJoules is the energy of the device itself (package+DRAM
	// for the CPU, the full PCI-E device for GPUs).
	DeviceJoules float64
	// GFlopsPerWatt is the efficiency in the units of Fig. 15
	// (FMA-flops only, excluding sincos, per device watt).
	GFlopsPerWatt float64
}

// Efficiency models one kernel's energy on a platform given its
// modelled runtime.
func Efficiency(p *arch.Platform, c perfmodel.KernelCounts) KernelEnergy {
	perf := perfmodel.Predict(p, c)
	e := KernelEnergy{
		Kernel:       c.Name,
		Platform:     p.Name,
		Seconds:      perf.Seconds,
		DeviceJoules: p.KernelPowerWatts * perf.Seconds,
	}
	if e.DeviceJoules > 0 {
		e.GFlopsPerWatt = c.Flops / e.DeviceJoules / 1e9
	}
	return e
}

// CycleEnergy is the modelled energy distribution of one imaging
// cycle (Fig. 14).
type CycleEnergy struct {
	Platform   string
	Gridder    KernelEnergy
	Degridder  KernelEnergy
	SubgridFFT KernelEnergy
	Adder      KernelEnergy
	Splitter   KernelEnergy
	// HostJoules is the host's consumption over the whole cycle
	// (zero for the CPU platform, where the host is the device).
	HostJoules float64
}

// DeviceTotal returns the device-side energy of the cycle.
func (c *CycleEnergy) DeviceTotal() float64 {
	return c.Gridder.DeviceJoules + c.Degridder.DeviceJoules +
		c.SubgridFFT.DeviceJoules + c.Adder.DeviceJoules + c.Splitter.DeviceJoules
}

// Total returns device plus host energy.
func (c *CycleEnergy) Total() float64 {
	return c.DeviceTotal() + c.HostJoules
}

// Cycle models the energy of one full imaging cycle on a platform.
func Cycle(p *arch.Platform, d perfmodel.Dataset) (CycleEnergy, error) {
	if err := d.Validate(); err != nil {
		return CycleEnergy{}, err
	}
	breakdown := perfmodel.ImagingCycle(p, d)
	gc := perfmodel.GridderCounts(d)
	dc := perfmodel.DegridderCounts(d)
	fc := perfmodel.SubgridFFTCounts(d)
	fc.Ops *= 2
	fc.Flops *= 2
	fc.DeviceBytes *= 2
	out := CycleEnergy{
		Platform:   p.Name,
		Gridder:    Efficiency(p, gc),
		Degridder:  Efficiency(p, dc),
		SubgridFFT: Efficiency(p, fc),
		Adder:      Efficiency(p, perfmodel.AdderCounts(d)),
		Splitter:   Efficiency(p, perfmodel.SplitterCounts(d)),
	}
	out.HostJoules = p.HostPowerWatts * breakdown.Total()
	return out, nil
}
