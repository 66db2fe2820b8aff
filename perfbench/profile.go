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

// layers are the buckets a CPU sample is charged to: the repository's
// modules under vread/internal (sim/shard as "shard"), "bench" for this
// benchmark's own frames, "other" for any other vread frame, and "go" for
// stacks with no vread frame at all. Every sample lands in exactly one, so
// the *.host_frac metrics add up to 1.
var layers = []string{
	"sim", "shard", "cpusched", "virtio", "guest", "netsim", "core", "storage",
	"fsim", "hdfs", "mapred", "workload", "metrics", "trace",
	"data", "cluster", "experiments", "faults", "par",
	"bench", "other", "go",
}

// sample is one profile sample: its call stack, leaf first, with inlined
// frames expanded, and its sample count.
type sample struct {
	frames []string
	count  int64
}

// foldLayers charges every sample to its innermost vread frame's layer, so
// runtime callees (malloc, GC assists, channel operations) count against
// the layer that called them. It returns each "<layer>.host_frac" and the
// go.* breakdowns as shares of all samples, and the sample total.
//
// go.gc_frac and go.other_frac split the "go" bucket: stacks with no vread
// frame that are, or are not, garbage-collector work. go.malloc_frac and
// go.handoff_frac cut across layers by the runtime frames at the leaf:
// allocation, and goroutine handoff (channels, park, schedule, futex).
func foldLayers(samples []sample) (map[string]float64, int64) {
	counts := make(map[string]int64)
	var total int64
	for _, s := range samples {
		total += s.count
		layer := "go"
		for _, f := range s.frames {
			if pkg, ok := vreadPackage(f); ok {
				layer = layerOf(pkg)
				break
			}
		}
		counts[layer+".host_frac"] += s.count
		if layer == "go" {
			if isGC(s.frames) {
				counts["go.gc_frac"] += s.count
			} else {
				counts["go.other_frac"] += s.count
			}
		}
		switch leafRuntime(s.frames) {
		case "malloc":
			counts["go.malloc_frac"] += s.count
		case "handoff":
			counts["go.handoff_frac"] += s.count
		}
	}
	out := make(map[string]float64, len(counts))
	for _, k := range foldKeys() {
		if total > 0 {
			out[k] = float64(counts[k]) / float64(total)
		} else {
			out[k] = 0
		}
	}
	return out, total
}

// foldKeys lists every metric foldLayers reports.
func foldKeys() []string {
	keys := make([]string, 0, len(layers)+4)
	for _, l := range layers {
		keys = append(keys, l+".host_frac")
	}
	return append(keys, "go.gc_frac", "go.other_frac", "go.malloc_frac", "go.handoff_frac")
}

// vreadPackage returns the import path of a vread function's package, from
// a symbol such as "vread/internal/sim.(*Env).run" or
// "vread/internal/par.Each[go.shape.struct {...}]". This program's own
// functions count too: "main.(*runner).check" in the built binary, where
// the linker names package main "main", and "vread/perfbench.(*runner).check"
// in its test binary.
func vreadPackage(fn string) (string, bool) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	if strings.HasPrefix(fn, "main.") {
		return "main", true
	}
	if !strings.HasPrefix(fn, "vread/") && !strings.HasPrefix(fn, "vread.") {
		return "", false
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, true
	}
	return fn[:slash+1+dot], true
}

// layerOf maps a vread package path to its layer.
func layerOf(pkg string) string {
	switch {
	case pkg == "vread/internal/sim/shard":
		return "shard"
	case pkg == "vread/perfbench", pkg == "main":
		return "bench"
	case strings.HasPrefix(pkg, "vread/internal/"):
		name := strings.TrimPrefix(pkg, "vread/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		for _, l := range layers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

func isGC(frames []string) bool {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return true
		}
	}
	return false
}

// leafRuntime classifies the run of runtime frames at the leaf of a stack:
// "malloc" if it passes through the allocator, "handoff" if through a
// goroutine switch, "" otherwise.
func leafRuntime(frames []string) string {
	handoff := false
	for _, f := range frames {
		if !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "internal/runtime/") {
			break
		}
		name := strings.TrimPrefix(f, "runtime.")
		switch {
		case strings.HasPrefix(name, "mallocgc"), name == "newobject", name == "makeslice",
			name == "growslice", name == "newarray", name == "makemap", name == "makemap_small":
			return "malloc"
		case strings.HasPrefix(name, "chansend"), strings.HasPrefix(name, "chanrecv"),
			strings.HasPrefix(name, "selectgo"), strings.HasPrefix(name, "gopark"),
			name == "park_m", name == "schedule", name == "findRunnable", name == "goready",
			name == "ready", name == "wakep", name == "mcall", name == "gogo",
			strings.HasPrefix(name, "futex"), strings.HasPrefix(name, "notesleep"),
			strings.HasPrefix(name, "notewakeup"), name == "stopm", name == "startm":
			handoff = true
		}
	}
	if handoff {
		return "handoff"
	}
	return ""
}

// ---------------------------------------------------------------------------
// A minimal reader for the gzipped profile.proto that runtime/pprof writes:
// only samples, locations, functions and the string table are decoded.

type protoFunction struct{ name int64 }

type protoLocation struct{ funcs []uint64 } // function IDs, innermost first

type protoSample struct {
	locs   []uint64 // location IDs, leaf first
	values []int64
}

// parseProfile decodes a gzipped CPU profile into samples.
func parseProfile(gz []byte) ([]sample, error) {
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
		samples []protoSample
		locs    = make(map[uint64]protoLocation)
		funcs   = make(map[uint64]protoFunction)
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s protoSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendPacked(&s.locs, wire, v, b)
				case 2:
					var vs []uint64
					if err := appendPacked(&vs, wire, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var l protoLocation
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = l
			return err
		case 5:
			var id uint64
			var f protoFunction
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		var frames []string
		for _, id := range s.locs {
			for _, fid := range locs[id].funcs {
				name := "?"
				if f, ok := funcs[fid]; ok && f.name >= 0 && int(f.name) < len(strs) {
					name = strs[f.name]
				}
				frames = append(frames, name)
			}
		}
		out = append(out, sample{frames: frames, count: s.values[0]})
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint fields fn
// gets the value in v; for length-delimited fields the bytes in b.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unknown wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
