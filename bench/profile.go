package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// layers are the per-layer attribution buckets of the CPU profile: the
// simulator's module names, with vliw split into block lowering and
// execution, plus the Go runtime's collector and allocator.
var layers = []string{
	"core", "arch", "isa", "primary", "sched", "vliw.lower", "vliw.engine", "vcache", "mem",
	"oracle", "asm", "progcheck", "progen", "metrics", "runtime.gc", "runtime.alloc", "other",
}

// modulePrefix is the import-path prefix of the layer packages.
const modulePrefix = "dtsvliw/internal/"

// layerProfile is a CPU profile folded by layer.
type layerProfile struct {
	samples map[string]int64
	// total counts the folded samples; calib the calibration kernel's,
	// which belong to no layer (see calib.go).
	total, calib int64
}

// frac is the layer's share of the folded samples.
func (p *layerProfile) frac(layer string) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.samples[layer]) / float64(p.total)
}

// layerShare is the share of all samples, calibration included, that the
// layers took: the share of the process CPU time outside the kernel.
func (p *layerProfile) layerShare() float64 {
	if p.total+p.calib == 0 {
		return 0
	}
	return float64(p.total) / float64(p.total+p.calib)
}

// calibFunc is the calibration kernel, whose samples are set aside.
const calibFunc = "dtsvliw/bench.(*calibrator).run"

// frame is one function activation of a sample's stack.
type frame struct{ fn, file string }

// runtimeGC and runtimeAlloc are the runtime entry points charged to the
// collector and the allocator wherever they appear on a stack; the
// collector is checked first, so an assist inside malloc counts as GC.
var (
	runtimeGC = []string{
		"runtime.gc", "runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.(*scavengerState)", "runtime.wbBuf", "runtime.markroot",
		"runtime.scan", "runtime.greyobject", "runtime.sweepone", "runtime.deductSweepCredit",
		"runtime.(*mheap).reclaim", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
		"runtime.bulkBarrier",
	}
	runtimeAlloc = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.memclr", "runtime.(*mcache)",
		"runtime.(*mcentral)", "runtime.(*mheap)", "runtime.rawstring", "runtime.rawbyteslice",
		"runtime.rawruneslice", "runtime.nextFreeFast", "runtime.heapSetType",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// classify charges a stack (leaf first) to one layer: the collector or
// the allocator if either is on the stack, otherwise the innermost frame
// of a simulator package, so standard-library and runtime leaves (memmove,
// map access, sorting) count against the layer that called them. A stack
// with no simulator frame, or whose innermost one is outside the layer
// list (the benchmark itself, workloads, telemetry), is "other".
func classify(stack []frame) string {
	for _, f := range stack {
		if hasAnyPrefix(f.fn, runtimeGC) {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if hasAnyPrefix(f.fn, runtimeAlloc) {
			return "runtime.alloc"
		}
	}
	for _, f := range stack {
		fn := f.fn
		if i := strings.IndexByte(fn, '['); i >= 0 {
			fn = fn[:i] // generic instantiation arguments may hold dots and slashes
		}
		slash := strings.LastIndexByte(fn, '/')
		dot := strings.IndexByte(fn[slash+1:], '.')
		if dot < 0 {
			continue
		}
		pkg := fn[:slash+1+dot]
		if !strings.HasPrefix(pkg, "dtsvliw/") {
			continue
		}
		name := strings.TrimPrefix(pkg, modulePrefix)
		if name == "vliw" {
			if path.Base(f.file) == "lower.go" {
				return "vliw.lower"
			}
			return "vliw.engine"
		}
		for _, l := range layers {
			if l == name {
				return l
			}
		}
		return "other"
	}
	return "other"
}

// foldProfile decodes a runtime/pprof CPU profile (gzipped protobuf) and
// folds its samples by layer.
func foldProfile(gz []byte) (*layerProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	lp := &layerProfile{samples: make(map[string]int64)}
	var stack []frame
	for _, s := range p.samples {
		if len(s.values) == 0 {
			return nil, errors.New("cpu profile: sample without a count")
		}
		stack = stack[:0]
		calib := false
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				f := p.funcs[fid]
				stack = append(stack, frame{fn: p.str(f.name), file: p.str(f.file)})
				calib = calib || stack[len(stack)-1].fn == calibFunc
			}
		}
		if calib {
			lp.calib += s.values[0]
			continue
		}
		l := classify(stack)
		lp.samples[l] += s.values[0]
		lp.total += s.values[0]
	}
	return lp, nil
}

// The decoder below reads the subset of profile.proto
// (github.com/google/pprof/proto/profile.proto) that runtime/pprof
// writes and folding needs.

type pbSample struct {
	locs   []uint64 // location IDs, leaf first
	values []int64  // samples/count, cpu/nanoseconds
}

type pbFunc struct{ name, file int64 } // string-table indices

type pbProfile struct {
	samples []pbSample
	locs    map[uint64][]uint64 // location ID -> function IDs, innermost inlined first
	funcs   map[uint64]pbFunc
	strs    []string
}

func (p *pbProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// Protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

// fields calls f for every field of message b with its number, wire type,
// scalar value (varint and fixed types) or payload (length-delimited).
func fields(b []byte, f func(num int, typ int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch typ {
		case wireVarint:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case wireI64:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case wireI32:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", typ)
		}
		if err := f(num, typ, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, typ int, v uint64, data []byte) ([]uint64, error) {
	if typ == wireVarint {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]pbFunc)}
	err := fields(b, func(num, typ int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s pbSample
			var vals []uint64
			err := fields(data, func(num, typ int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = varints(s.locs, typ, v, data)
				case 2:
					vals, err = varints(vals, typ, v, data)
				}
				return err
			})
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(data, func(num, typ int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(data, func(num, typ int, v uint64, data []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var f pbFunc
			err := fields(data, func(num, typ int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			p.funcs[id] = f
			return err
		case 6: // string table
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
