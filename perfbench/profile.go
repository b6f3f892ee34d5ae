package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the benchmark
// folds: for every sample, its call stack (leaf first) and sample count.
type cpuProfile struct {
	stacks [][]string
	counts []int64
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof.StartCPUProfile writes. Only the fields needed to name each
// sample's frames are read: Profile.sample (2), .location (4),
// .function (5) and .string_table (6); Sample.location_id (1) and .value
// (2); Location.id (1) and .line (4); Line.function_id (1); Function.id (1)
// and .name (2).
func parseCPUProfile(gz []byte) (cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return cpuProfile{}, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuProfile{}, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id → function ids, innermost first
	funcName := map[uint64]uint64{}   // function id → string index
	var strs []string
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			var vals []uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					vals = pbUints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5:
			var id, name uint64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return cpuProfile{}, err
	}
	var p cpuProfile
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.count)
	}
	return p, nil
}

// pbFields walks the fields of one protobuf message, calling fn with the
// field number and either the varint value or the length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// pbUints appends a repeated varint field given either one unpacked value
// (data == nil) or a packed run.
func pbUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// funcPackage returns the import path of a symbol such as
// "qisim/internal/cmath.(*ExpmWorkspace).ExpmInto" or "net/http.(*conn).serve".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiations name other packages
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// gcRoots are the runtime entry points whose whole subtree is garbage
// collection work (background marking, mark assists, sweeping, scavenging).
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination"}

// cpuModules maps each cpu.<module>_frac metric to the package (and its
// sub-packages) whose leaf (flat) samples it counts.
var cpuModules = []struct{ name, pkg string }{
	{"cmath", "qisim/internal/cmath"},
	{"ham", "qisim/internal/ham"},
	{"gateerror", "qisim/internal/gateerror"},
	{"simrun", "qisim/internal/simrun"},
	{"surface", "qisim/internal/surface"},
	{"pauli", "qisim/internal/pauli"},
	{"readout", "qisim/internal/readout"},
	{"checkpoint", "qisim/internal/checkpoint"},
	{"service", "qisim/internal/service"},
	{"jobs", "qisim/internal/jobs"},
	{"rescache", "qisim/internal/rescache"},
	{"json", "encoding/json"},
	{"nethttp", "net/http"},
	{"metrics", "qisim/internal/metrics"},
	{"obs", "qisim/internal/obs"},
	{"dist", "qisim/internal/dist"},
	{"rand", "math/rand"},
	{"syscall", "internal/runtime/syscall"},
}

// fold returns, for every cpu module and "gc", its share of all samples:
// flat (leaf frame's package) for modules, inclusive under gcRoots for gc.
func (p cpuProfile) fold() map[string]float64 {
	byPkg := map[string]int64{}
	var total, gc int64
	for i, st := range p.stacks {
		c := p.counts[i]
		total += c
		if len(st) > 0 {
			byPkg[funcPackage(st[0])] += c
		}
	stack:
		for _, f := range st {
			for _, r := range gcRoots {
				if f == r {
					gc += c
					break stack
				}
			}
		}
	}
	out := map[string]float64{}
	frac := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(n) / float64(total)
	}
	for _, m := range cpuModules {
		var n int64
		for got, c := range byPkg {
			if got == m.pkg || strings.HasPrefix(got, m.pkg+"/") {
				n += c
			}
		}
		out[m.name] = frac(n)
	}
	out["gc"] = frac(gc)
	return out
}
