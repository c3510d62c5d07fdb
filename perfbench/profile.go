package main

// CPU profile attribution: the traced run's profile (gzipped
// profile.proto, as runtime/pprof writes it) is decoded with a minimal
// protobuf reader and each sample's self time is charged to the package
// of its innermost frame.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profiled maps each profile.* metric to the package it covers.
var profiled = []struct{ metric, pkg string }{
	{"profile.sim_pct", "bbsched/internal/sim"},
	{"profile.queue_pct", "bbsched/internal/queue"},
	{"profile.backfill_pct", "bbsched/internal/backfill"},
	{"profile.cluster_pct", "bbsched/internal/cluster"},
	{"profile.moo_pct", "bbsched/internal/moo"},
	{"profile.lp_pct", "bbsched/internal/lp"},
	{"profile.metrics_pct", "bbsched/internal/metrics"},
	{"profile.trace_pct", "bbsched/internal/trace"},
	{"profile.runtime_pct", "runtime"},
}

// setShares sets the profile.* metrics from per-package shares.
func setShares(m values, shares map[string]float64) {
	for _, p := range profiled {
		m[p.metric] = 100 * shares[p.pkg]
	}
}

// pkgOf returns the package path of a symbol such as
// "bbsched/internal/moo.(*Evaluator).lookup"; runtime internals count as
// "runtime".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	pkg := fn
	if dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal") || strings.HasPrefix(pkg, "internal/runtime") {
		return "runtime"
	}
	return pkg
}

// profileShares returns each package's share of the profile's CPU time,
// by the innermost (self) frame of every sample.
func profileShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}  // function id -> name string index
		leafFn  = map[uint64]uint64{} // location id -> innermost function id
		samples []pbSample
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s pbSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					if b == nil {
						s.locs = append(s.locs, v)
					} else {
						s.locs = appendPacked(s.locs, b)
					}
				case 2:
					if b == nil {
						s.vals = append(s.vals, v)
					} else {
						s.vals = appendPacked(s.vals, b)
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			first := true
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if first {
						first = false
						return pbFields(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			leafFn[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.vals) == 0 {
			continue
		}
		v := float64(s.vals[len(s.vals)-1]) // CPU nanoseconds
		total += v
		name := funcs[leafFn[s.locs[0]]]
		if name >= 0 && name < int64(len(strs)) {
			shares[pkgOf(strs[name])] += v
		}
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

type pbSample struct{ locs, vals []uint64 }

// pbFields calls fn for each field of a protobuf message: v holds a
// varint or fixed value, b the bytes of a length-delimited one (nil
// otherwise).
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

func appendPacked(dst []uint64, b []byte) []uint64 {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst
}
