// Benchmarks: one per table/figure of the paper's evaluation. Each bench
// regenerates its experiment end to end, so `go test -bench=. -benchmem`
// both times the framework and re-derives every reported number.
package qisim_test

import (
	"context"
	"fmt"
	"testing"

	"qisim/internal/compile"
	"qisim/internal/cyclesim"
	"qisim/internal/dsp"
	"qisim/internal/experiments"
	"qisim/internal/gateerror"
	"qisim/internal/ham"
	"qisim/internal/jj"
	"qisim/internal/lattice"
	"qisim/internal/microarch"
	"qisim/internal/pauli"
	"qisim/internal/qcp"
	"qisim/internal/readout"
	"qisim/internal/scalability"
	"qisim/internal/simrun"
	"qisim/internal/surface"
	"qisim/internal/validate"
	"qisim/internal/verilog"
	"qisim/internal/workloads"
)

func BenchmarkFig08CMOSValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := validate.Fig8CMOSPower()
		if validate.MaxError(rows) > 0.065 {
			b.Fatal("Fig. 8 accuracy regression")
		}
	}
}

func BenchmarkFig10SFQValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, p := validate.Fig10SFQ()
		if validate.MaxError(f) > 0.08 || validate.MaxError(p) > 0.085 {
			b.Fatal("Fig. 10 accuracy regression")
		}
	}
}

func BenchmarkTable1GateErrors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := validate.Table1GateErrors()
		if validate.MaxError(rows) > 0.30 {
			b.Fatal("Table 1 accuracy regression")
		}
	}
}

func BenchmarkFig11WorkloadFidelity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := validate.Fig11Workloads()
		if err != nil {
			b.Fatal(err)
		}
		if m := validate.MeanError(rows); m > 0.08 {
			b.Fatal("Fig. 11 accuracy regression")
		}
	}
}

func BenchmarkTable2Setup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := experiments.Table2(); len(s) == 0 {
			b.Fatal("empty setup")
		}
	}
}

func BenchmarkFig12Scalability300K(b *testing.B) {
	opt := scalability.DefaultOptions()
	for i := 0; i < b.N; i++ {
		for _, d := range []microarch.Design{
			microarch.Baseline300KCoax(), microarch.Baseline300KMicrostrip(), microarch.Baseline300KPhotonic(),
		} {
			a := scalability.Analyze(d, opt)
			if a.MaxQubits >= 1000 {
				b.Fatalf("%s exceeded 1,000 qubits", d.Name)
			}
		}
	}
}

func BenchmarkFig13Scalability4K(b *testing.B) {
	opt := scalability.DefaultOptions()
	for i := 0; i < b.N; i++ {
		if a := scalability.Analyze(microarch.CMOS4KOpt12(), opt); a.MaxQubits < 1152 {
			b.Fatal("near-term CMOS target regression")
		}
		if a := scalability.Analyze(microarch.RSFQOpt345(), opt); a.MaxQubits < 1152 {
			b.Fatal("near-term RSFQ target regression")
		}
	}
}

func BenchmarkFig14BitPrecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig14()
		if r.LogicalSaturationBits > 7 {
			b.Fatal("logical saturation regression")
		}
	}
}

func BenchmarkFig15JPMSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig15()
		if r.PipelinedNS > 1300 {
			b.Fatal("pipelined latency regression")
		}
	}
}

func BenchmarkFig16SFQOpts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig16()
		if r.BitgenReduction < 0.9 {
			b.Fatal("Opt-#4 regression")
		}
	}
}

func BenchmarkFig17LongTerm(b *testing.B) {
	opt := scalability.DefaultOptions()
	for i := 0; i < b.N; i++ {
		if a := scalability.Analyze(microarch.ERSFQOpt8(), opt); a.MaxQubits < 62208 {
			b.Fatal("long-term target regression")
		}
	}
}

func BenchmarkFig18InstructionMasking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig18()
		if r.BandwidthSaved < 0.85 {
			b.Fatal("Opt-#6 regression")
		}
	}
}

func BenchmarkFig19MultiRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig19()
		if err != nil {
			b.Fatal(err)
		}
		if r.MultiRound.Speedup < 0.3 {
			b.Fatal("Opt-#7 regression")
		}
	}
}

func BenchmarkFig20FastDriving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig20()
		if r.FastDriveNS > 260 {
			b.Fatal("Opt-#8 regression")
		}
	}
}

// ---- component micro-benchmarks ----

func BenchmarkCMOS1QGateErrorModel(b *testing.B) {
	cfg := gateerror.DefaultCMOS1QConfig()
	cfg.Trials = 2
	for i := 0; i < b.N; i++ {
		gateerror.CMOS1QError(cfg)
	}
}

func BenchmarkCZGateErrorModel(b *testing.B) {
	cfg := gateerror.DefaultCZConfig()
	cfg.Trials = 2
	for i := 0; i < b.N; i++ {
		gateerror.CZError(cfg)
	}
}

func BenchmarkSFQBitstreamOptimizer(b *testing.B) {
	cfg := gateerror.DefaultSFQ1QConfig()
	for i := 0; i < b.N; i++ {
		gateerror.SFQ1QError(cfg)
	}
}

func BenchmarkCycleSimESMd9(b *testing.B) {
	patch := surface.NewPatch(9)
	ex := esmExecutable(b, patch)
	cfg := cyclesim.CMOSConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cyclesim.Run(ex, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurfaceCodeDecoder measures the sharded Monte-Carlo engine's
// scaling across worker counts: every sub-benchmark runs the identical
// 8,000-shot d=5 MWPM workload (bit-identical result by construction) and
// reports throughput as shots/sec. ShardSize 256 gives ~31 shards so the
// fan-out has real work to distribute.
func BenchmarkSurfaceCodeDecoder(b *testing.B) {
	const shots = 8000
	ctx := context.Background()
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opt := simrun.Options{Workers: w, ShardSize: 256}
			for i := 0; i < b.N; i++ {
				if _, err := surface.MonteCarloLogicalErrorCtx(ctx, 5, 0.01, shots, int64(i), opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(shots)*float64(b.N)/b.Elapsed().Seconds(), "shots/sec")
		})
	}
}

// BenchmarkReadoutMultiRoundMC scales the multi-round readout sampler the
// same way: same tally for every worker count, throughput in shots/sec.
func BenchmarkReadoutMultiRoundMC(b *testing.B) {
	ctx := context.Background()
	c, tm := readout.DefaultChain(), readout.DefaultTiming()
	cfg := readout.DefaultMultiRoundConfig()
	cfg.Shots = 20000
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opt := simrun.Options{Workers: w, ShardSize: 512}
			for i := 0; i < b.N; i++ {
				if _, err := readout.MultiRoundErrorCtx(ctx, c, tm, cfg, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.Shots)*float64(b.N)/b.Elapsed().Seconds(), "shots/sec")
		})
	}
}

func BenchmarkWorkloadESP(b *testing.B) {
	prog := workloads.GHZ(16)
	ex, err := compile.Compile(prog, compile.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	res, err := cyclesim.Run(ex, cyclesim.CMOSConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := pauli.DefaultConfig(validate.Machines()[0].Rates)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pauli.ESP(res, cfg)
	}
}

func BenchmarkSurfacePhenomenological(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := surface.MonteCarloPhenomenologicalCtx(ctx, 3, 0.01, 0.01, 3, 200, int64(i), simrun.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnionFindDecoder(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := surface.MonteCarloUnionFindCtx(ctx, 5, 0.01, 200, int64(i), simrun.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerilogGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mods := verilog.GenerateQCI(32, 24, 14, 7, true)
		if err := verilog.CheckBundle(mods); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFixedPointNCO(b *testing.B) {
	n := dsp.NewFixedNCO(24, 10, 14)
	fw := n.FreqWord(200e6, 2.5e9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(fw)
		n.Sample(8191, 0)
	}
}

func BenchmarkJTLinePropagation(b *testing.B) {
	l := jj.DefaultJTLine(20, 10)
	for i := 0; i < b.N; i++ {
		if d := l.PropagationDelay(5e-9); d <= 0 {
			b.Fatal("fluxon died")
		}
	}
}

func BenchmarkLatticeCNOTPipeline(b *testing.B) {
	layout := lattice.NewLayout(3, 3)
	tr := qcp.NewTranslator(layout)
	prog := lattice.CNOTProgram(layout, 0, 1, 2)
	for i := 0; i < b.N; i++ {
		if _, err := tr.Run(prog, cyclesim.CMOSConfig(), compile.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJPMTunnelLindblad(b *testing.B) {
	m := ham.DefaultJPMTunnelModel()
	for i := 0; i < b.N; i++ {
		m.TunnelProbability(1.0, 12.8e-9)
	}
}

func BenchmarkSFQ1QThreeLevel(b *testing.B) {
	cfg := gateerror.DefaultSFQ1QConfig()
	cfg.MaxOptimizeIters = 100
	cfg.AnharmonicityHz = -330e6
	for i := 0; i < b.N; i++ {
		gateerror.SFQ1QError(cfg)
	}
}

func esmExecutable(b *testing.B, patch *surface.Patch) *compile.Executable {
	b.Helper()
	ex, err := compile.Compile(esmProgram(patch), compile.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return ex
}
