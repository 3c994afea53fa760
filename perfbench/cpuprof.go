package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileBuckets are the packages whose CPU share the traced run reports.
// A sample is charged to the innermost frame on its stack from one of these
// packages, so a library or runtime call (a sort, an allocation) counts
// toward the package that made it. A sample with no such frame is charged
// to the runtime when its innermost frame is in the runtime (the garbage
// collector, the scheduler), else to "other".
var profileBuckets = []struct{ name, pkg string }{
	{"netmod", "gurita/internal/netmod"},
	{"sim", "gurita/internal/sim"},
	{"eventq", "gurita/internal/eventq"},
	{"sched", "gurita/internal/sched"},
	{"core", "gurita/internal/core"},
	{"hr", "gurita/internal/hr"},
	{"runtime", "runtime"},
	{"perfbench", "gurita/perfbench"},
}

// cpuByBucket decodes a gzipped pprof CPU profile and adds each bucket's
// sampled CPU nanoseconds, plus "other", into acc.
func cpuByBucket(gz []byte, acc map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		if len(s.values) > 0 {
			acc[p.bucket(s.locs)] += s.values[len(s.values)-1] // cpu ns
		}
	}
	return nil
}

// bucket charges a stack, innermost location first, to its bucket.
func (p *profile) bucket(locs []uint64) string {
	leaf := ""
	for _, l := range locs {
		for _, fn := range p.locFuncs[l] {
			pkg := p.pkgOf(fn)
			if leaf == "" {
				leaf = pkg
			}
			for _, b := range profileBuckets {
				if pkg == b.pkg && b.name != "runtime" {
					return b.name
				}
			}
		}
	}
	if leaf == "runtime" || strings.HasPrefix(leaf, "runtime/") || strings.HasPrefix(leaf, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// pkgOf returns the import path of a function id's symbol.
func (p *profile) pkgOf(fn uint64) string {
	idx, ok := p.funcName[fn]
	if !ok || idx < 0 || int(idx) >= len(p.strings) {
		return ""
	}
	return packageOf(p.strings[idx])
}

// cpuShares turns bucket totals into shares of all sampled CPU time, with
// every bucket present.
func cpuShares(acc map[string]int64) map[string]float64 {
	var total int64
	for _, v := range acc {
		total += v
	}
	out := map[string]float64{"other": 0}
	for _, b := range profileBuckets {
		out[b.name] = 0
	}
	for name, v := range acc {
		if total > 0 {
			out[name] = float64(v) / float64(total)
		}
	}
	return out
}

// packageOf returns the import path of a symbol such as
// "gurita/internal/netmod.(*Allocator).waterfill".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile holds the parts of profile.proto the shares need.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost (inlined) first
	funcName map[uint64]int64    // function id -> name string index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile reads the Profile message (github.com/google/pprof
// profile.proto): samples (field 2), locations (4), functions (5) and the
// string table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendUvarints(s.locs, wire, v, data)
				case 2:
					for _, u := range appendUvarints(nil, wire, v, data) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // a Line; a location lists inlined frames innermost first
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendUvarints appends a repeated varint field, packed or not.
func appendUvarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
