// Package microarch assembles full QCI design points — the five
// temperature/technology candidates of Fig. 3 plus every optimisation stage
// of Section 6 — from the device models (internal/cmos, internal/sfq), the
// wiring models (internal/wiring), the JPM readout pipeline (internal/jpm),
// and the ISA bandwidth accounting (internal/isa). Each design yields its
// per-qubit per-stage power, its ESM round timing, and its effective
// physical error rate, which internal/scalability converts into a maximum
// supportable qubit count.
package microarch

import (
	"fmt"

	"qisim/internal/cmos"
	"qisim/internal/isa"
	"qisim/internal/jpm"
	"qisim/internal/phys"
	"qisim/internal/sfq"
	"qisim/internal/surface"
	"qisim/internal/wiring"
)

// Family is the device-technology family of a QCI.
type Family int

const (
	// CMOS300K is a room-temperature CMOS QCI (cable choice varies).
	CMOS300K Family = iota
	// CMOS4K is the in-fridge CMOS QCI.
	CMOS4K
	// SFQ4K is the in-fridge SFQ QCI.
	SFQ4K
)

func (f Family) String() string {
	switch f {
	case CMOS300K:
		return "300K-CMOS"
	case CMOS4K:
		return "4K-CMOS"
	default:
		return "4K-SFQ"
	}
}

// Design is one fully specified QCI design point.
type Design struct {
	Name   string
	Family Family

	// CMOSCfg is the digital-part configuration for CMOS families.
	CMOSCfg cmos.QCIConfig
	// SFQTech and DriveSpec configure the SFQ family.
	SFQTech   sfq.Tech
	DriveSpec sfq.DriveSpec
	// LowPowerBitgen applies Opt-#4.
	LowPowerBitgen bool
	// ReadoutMode/FastDriving configure the JPM readout (Opt-#3/#8).
	ReadoutMode jpm.ShareMode
	FastDriving bool

	// SignalCable carries drive/pulse/readout signals to the mK stages.
	SignalCable wiring.CableType
	// SignalStages lists the stages the signal cables load. 300 K QCIs load
	// 4K+100mK+20mK; 4 K QCIs only 100mK+20mK.
	SignalStages []wiring.Stage
	// DataLink is the 300 K→4 K instruction link (4 K families only).
	DataLink *wiring.DataLink
	// MaskedISA applies Opt-#6 instruction masking.
	MaskedISA bool
	// MultiRound applies the Opt-#7 readout (306 ns expected latency).
	MultiRound bool

	// PerQubitAWG drops frequency multiplexing on the drive/TX (photonic
	// link designs, Section 3.2).
	PerQubitAWG bool

	// SignalActiveScale scales the Table 2 per-cable active loads, which
	// are specified for full-power microwaves. SFQ designs carry
	// microvolt-scale flux pulses, so their delivered signal power at the
	// mK stages is negligible (~0).
	SignalActiveScale float64

	// Offload70K applies the Section 7.3 extension: the drive and RX analog
	// front-ends move to the 30 W 70 K stage (with a cabling/driver
	// overhead), freeing 4 K budget. CMOS 4 K designs only.
	Offload70K bool
}

// offload70KOverhead is the power penalty of driving signals across the
// extra 70 K↔4 K boundary.
const offload70KOverhead = 1.2

// signalActive returns the effective active-load scale (default 1).
func (d Design) signalActive() float64 {
	if d.Family == SFQ4K {
		return d.SignalActiveScale // zero by construction for SFQ designs
	}
	if d.SignalActiveScale == 0 {
		return 1
	}
	return d.SignalActiveScale
}

// DriveFDM returns the effective drive multiplexing degree.
func (d Design) DriveFDM() int {
	if d.PerQubitAWG {
		return 1
	}
	if d.Family == SFQ4K {
		return d.DriveSpec.Qubits
	}
	return d.CMOSCfg.DriveFDM
}

// ReadoutFDM returns the readout multiplexing degree.
func (d Design) ReadoutFDM() int {
	if d.PerQubitAWG {
		return 1
	}
	if d.Family == SFQ4K {
		return 8
	}
	return d.CMOSCfg.ReadoutFDM
}

// ReadoutLatency returns the per-round readout latency of the design.
func (d Design) ReadoutLatency() float64 {
	if d.Family == SFQ4K {
		p := jpm.NewPipeline(d.ReadoutMode)
		p.FastDriving = d.FastDriving
		return p.TotalLatency()
	}
	if d.MultiRound {
		return 306e-9 // Opt-#7 expected latency (Fig. 19)
	}
	return phys.CMOSOperationSpecs().Readout.Latency
}

// RoundTiming returns the ESM round schedule of the design.
func (d Design) RoundTiming() surface.RoundTiming {
	t := surface.RoundTiming{
		OneQTime:           25e-9,
		TwoQTime:           50e-9,
		ReadoutTime:        d.ReadoutLatency(),
		DriveSerialization: 1,
	}
	if d.Family != SFQ4K && !d.PerQubitAWG {
		t.DriveSerialization = surface.CMOSSerialization(d.DriveFDM())
	}
	return t
}

// ErrorParams returns the calibrated effective-error coefficients.
func (d Design) ErrorParams() surface.ErrorParams {
	if d.Family == SFQ4K {
		return surface.SFQErrorParams()
	}
	return surface.CMOSErrorParams()
}

// LogicalError returns p_L at distance d23 for the design's round timing,
// with an optional extra gate error (bit-precision sweeps).
func (d Design) LogicalError(extraGateError float64) float64 {
	pr := surface.DefaultProjection()
	p := d.ErrorParams().Effective(d.RoundTiming().RoundTime(), extraGateError)
	return pr.Logical(p)
}

// dutyCycles returns the per-cable duty cycles of the ESM workload for the
// drive, pulse and readout lines (active-load scaling of Table 2).
func (d Design) dutyCycles() (drive, pulse, readout float64) {
	t := d.RoundTiming()
	round := t.RoundTime()
	ser := t.DriveSerialization
	if ser < 1 {
		ser = 1
	}
	drive = 2 * t.OneQTime * ser / round
	if drive > 1 {
		drive = 1
	}
	pulse = 4 * t.TwoQTime / round
	readout = t.ReadoutTime / round
	return
}

// signalCablesPerQubit returns the per-qubit signal-cable counts by line.
func (d Design) signalCablesPerQubit() (drive, pulse, tx, rx float64) {
	drive = 1 / float64(d.DriveFDM())
	pulse = 1
	tx = 1 / float64(d.ReadoutFDM())
	rx = 1 / float64(d.ReadoutFDM())
	return
}

// InstructionBandwidth returns the per-qubit 300 K→4 K bandwidth (bits/s).
func (d Design) InstructionBandwidth() float64 {
	round := d.RoundTiming().RoundTime()
	switch {
	case d.Family == SFQ4K:
		return isa.SFQBandwidth(round, d.DriveSpec.Qubits, d.DriveSpec.BS)
	case d.MaskedISA:
		return isa.MaskedCMOSBandwidth(round, d.DriveFDM())
	default:
		return isa.BaselineCMOSBandwidth(round)
	}
}

// PowerBreakdown is the per-qubit power accounting of a design.
type PowerBreakdown struct {
	// Device power at the QCI's own stage (4 K for in-fridge designs; the
	// 300 K device power is free).
	DeviceW float64
	// WireW is the 300 K→4 K instruction-link power (4 K families).
	WireW float64
	// StageW is the total per-qubit dissipation per temperature stage,
	// including device, wire, signal-cable, and mK-device terms.
	StageW map[wiring.Stage]float64
}

// PerQubitPower computes the design's per-qubit power at every stage under
// the ESM duty cycles.
func (d Design) PerQubitPower() PowerBreakdown {
	b := PowerBreakdown{StageW: map[wiring.Stage]float64{}}
	driveDuty, pulseDuty, roDuty := d.dutyCycles()
	nd, np, ntx, nrx := d.signalCablesPerQubit()

	if d.SignalCable.Name == wiring.PhotonicLink.Name {
		// Photonic link (Section 3.2): drive and TX fibers end in 20 mK
		// photodetectors (the active load); the RX path returns through a
		// passive mK EOM; the pulse line stays electrical microstrip (no
		// two-qubit photonic demonstration exists).
		ms := wiring.Microstrip
		for _, st := range d.SignalStages {
			fiber := d.SignalCable.Load(st)
			w := nd*fiber.At(driveDuty) + ntx*fiber.At(roDuty) + // fibers w/ PD
				nrx*fiber.PassiveW + // EOM return path: passive only
				np*ms.Load(st).At(pulseDuty) // electrical pulse line
			b.StageW[st] += w
		}
	} else {
		// Electrical signal cables load their listed stages.
		as := d.signalActive()
		for _, st := range d.SignalStages {
			l := d.SignalCable.Load(st)
			w := nd*l.At(driveDuty*as) + np*l.At(pulseDuty*as) + ntx*l.At(roDuty*as) + nrx*l.At(roDuty*as)
			b.StageW[st] += w
		}
	}

	switch d.Family {
	case CMOS4K:
		bd := cmos.Breakdown(d.CMOSCfg)
		b.DeviceW = bd.Total()
		if d.Offload70K {
			// Re-home the analog front-ends at 70 K (Section 7.3).
			moved := bd.DriveAnalog + bd.RXAnalog
			b.DeviceW -= moved
			b.StageW[wiring.Stage70K] += moved * offload70KOverhead
		}
		b.StageW[wiring.Stage4K] += b.DeviceW
		if d.DataLink != nil {
			b.WireW = d.DataLink.PowerAt4K(d.InstructionBandwidth())
			b.StageW[wiring.Stage4K] += b.WireW
		}
	case SFQ4K:
		b.DeviceW = d.sfqPerQubit4K()
		b.StageW[wiring.Stage4K] += b.DeviceW
		if d.DataLink != nil {
			b.WireW = d.DataLink.PowerAt4K(d.InstructionBandwidth())
			b.StageW[wiring.Stage4K] += b.WireW
		}
		// mK JPM readout device power.
		mk := sfq.MKJPMReadout(1)
		dev := sfq.MKDevice(d.SFQTech)
		per := mk.StaticPower(dev) + mk.DynamicPower(dev, 24e9*roDuty)
		if d.ReadoutMode != jpm.Unshared {
			per /= 8
		}
		b.StageW[wiring.Stage20mK] += per
	}
	return b
}

// sfqPerQubit4K sums the 4 K SFQ drive/pulse/readout circuits per qubit.
func (d Design) sfqPerQubit4K() float64 {
	dev := sfq.MITLLSFQ5ee(d.SFQTech)
	s := d.DriveSpec
	var group float64
	add := func(c *sfq.Circuit) {
		f := 24e9
		group += c.StaticPower(dev) + c.DynamicPower(dev, f)
	}
	add(sfq.ControlDataBuffer(s))
	if d.LowPowerBitgen {
		add(sfq.LowPowerBitstreamGenerator(s))
	} else {
		add(sfq.BitstreamGenerator(s))
	}
	add(sfq.BitstreamController(s))
	add(sfq.PerQubitController(s))
	add(sfq.PulseCircuit(s.Qubits, 4, 6))
	add(sfq.ReadoutFrontEnd(s.Qubits))
	return group / float64(s.Qubits)
}

func (d Design) String() string {
	return fmt.Sprintf("%s (%s)", d.Name, d.Family)
}

// ---- Design-point constructors (the Section 6 case studies) ----

func stages300K() []wiring.Stage {
	return []wiring.Stage{wiring.Stage4K, wiring.Stage100mK, wiring.Stage20mK}
}

func stagesMK() []wiring.Stage {
	return []wiring.Stage{wiring.Stage100mK, wiring.Stage20mK}
}

// Baseline300KCoax is today's room-temperature QCI with stainless coax
// (Fig. 12(a)).
func Baseline300KCoax() Design {
	return Design{
		Name: "300K-coax", Family: CMOS300K,
		CMOSCfg:      cmos.Baseline14nm(),
		SignalCable:  wiring.CoaxialCable,
		SignalStages: stages300K(),
	}
}

// Baseline300KMicrostrip swaps the coax for flexible microstrip (Fig. 12(b)).
func Baseline300KMicrostrip() Design {
	d := Baseline300KCoax()
	d.Name = "300K-microstrip"
	d.SignalCable = wiring.Microstrip
	return d
}

// Baseline300KPhotonic is the photonic-link QCI with per-qubit AWGs and
// 20 mK photodetectors (Fig. 12(c)).
func Baseline300KPhotonic() Design {
	d := Baseline300KCoax()
	d.Name = "300K-photonic"
	d.SignalCable = wiring.PhotonicLink
	d.PerQubitAWG = true
	return d
}

// CMOS4KBaseline is the Section 3.3 Horse-Ridge-derived 4 K CMOS QCI with
// superconducting coax to the mK stages (Fig. 13(a) baseline).
func CMOS4KBaseline() Design {
	link := wiring.DefaultDataLink()
	return Design{
		Name: "4K-CMOS-baseline", Family: CMOS4K,
		CMOSCfg:      cmos.Baseline14nm(),
		SignalCable:  wiring.SuperconductingCoax,
		SignalStages: stagesMK(),
		DataLink:     &link,
	}
}

// CMOS4KOpt12 applies Opt-#1 (memory-less decision unit) and Opt-#2 (6-bit
// drive) — the 1,399-qubit near-term design.
func CMOS4KOpt12() Design {
	d := CMOS4KBaseline()
	d.Name = "4K-CMOS-opt12"
	d.CMOSCfg = cmos.Optimized14nm()
	return d
}

// CMOS4KAdvanced applies the long-term technology (7 nm) and voltage
// scalings over Opt-#1/2, with superconducting microstrip (Fig. 17(a)).
func CMOS4KAdvanced() Design {
	d := CMOS4KOpt12()
	d.Name = "4K-CMOS-advanced"
	d.CMOSCfg = cmos.Advanced7nm()
	d.SignalCable = wiring.SuperconductingMicrostrip
	return d
}

// CMOS4KAdvancedOpt6 adds the FTQC-friendly instruction masking.
func CMOS4KAdvancedOpt6() Design {
	d := CMOS4KAdvanced()
	d.Name = "4K-CMOS-advanced-opt6"
	d.MaskedISA = true
	return d
}

// CMOS4KAdvancedOpt67 adds Opt-#7: FDM 32→20 and the fast multi-round
// readout — the 63,883-qubit design.
func CMOS4KAdvancedOpt67() Design {
	d := CMOS4KAdvancedOpt6()
	d.Name = "4K-CMOS-advanced-opt67"
	d.CMOSCfg.DriveFDM = 20
	d.MultiRound = true
	return d
}

// CMOS4KOpt12With70K is the Section 7.3 exploration: the Opt-#1/2 design
// with its analog front-ends re-homed at the 30 W 70 K stage.
func CMOS4KOpt12With70K() Design {
	d := CMOS4KOpt12()
	d.Name = "4K-CMOS-opt12+70K"
	d.Offload70K = true
	return d
}

// RSFQBaseline is the Section 3.4 RSFQ QCI with unshared JPM readout
// (Fig. 13(b) baseline).
func RSFQBaseline() Design {
	link := wiring.DefaultDataLink()
	return Design{
		Name: "RSFQ-baseline", Family: SFQ4K,
		SFQTech:     sfq.RSFQ,
		DriveSpec:   sfq.DefaultDriveSpec(),
		ReadoutMode: jpm.Unshared,
		// SFQ pulses are microvolt-scale: the flexible superconducting
		// microstrip carries them with negligible mK heat load, so the SFQ
		// QCI's mK power is dominated by the JPM readout devices (99.7%,
		// Section 6.3.2).
		SignalCable:  wiring.SuperconductingMicrostrip,
		SignalStages: stagesMK(),
		DataLink:     &link,
	}
}

// RSFQNaiveSharing shares the JPM readout without pipelining — the
// cautionary tale of Fig. 15.
func RSFQNaiveSharing() Design {
	d := RSFQBaseline()
	d.Name = "RSFQ-naive-sharing"
	d.ReadoutMode = jpm.NaiveShared
	return d
}

// RSFQOpt345 applies Opt-#3 (shared+pipelined readout), Opt-#4 (low-power
// bitgen) and Opt-#5 (#BS = 1) — the 1,248-qubit design.
func RSFQOpt345() Design {
	d := RSFQBaseline()
	d.Name = "RSFQ-opt345"
	d.ReadoutMode = jpm.Pipelined
	d.LowPowerBitgen = true
	d.DriveSpec.BS = 1
	return d
}

// ERSFQOpt8 is the long-term ERSFQ design with fast resonator driving and
// unshared readout — the 82,413-qubit design (Fig. 17(b)/20).
func ERSFQOpt8() Design {
	d := RSFQOpt345()
	d.Name = "ERSFQ-opt8"
	d.SFQTech = sfq.ERSFQ
	d.ReadoutMode = jpm.Unshared
	d.FastDriving = true
	return d
}

// AllDesigns returns every named design point of the Section 6 analysis.
func AllDesigns() []Design {
	return []Design{
		Baseline300KCoax(),
		Baseline300KMicrostrip(),
		Baseline300KPhotonic(),
		CMOS4KBaseline(),
		CMOS4KOpt12(),
		CMOS4KAdvanced(),
		CMOS4KAdvancedOpt6(),
		CMOS4KAdvancedOpt67(),
		RSFQBaseline(),
		RSFQNaiveSharing(),
		RSFQOpt345(),
		ERSFQOpt8(),
	}
}

// DesignByName returns the named design point of AllDesigns.
func DesignByName(name string) (Design, bool) {
	for _, d := range AllDesigns() {
		if d.Name == name {
			return d, true
		}
	}
	return Design{}, false
}
