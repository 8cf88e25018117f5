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

// profileTargets are the served-path functions ROADMAP's profile names, by
// metric stem. A function's count is cumulative: the samples whose stack
// holds it, inlined frames included. The net_http stem is the exception:
// every handler stack starts in net/http, so it counts the samples whose
// innermost net/http-or-repository frame is net/http, the HTTP work itself
// on both ends of the loopback.
var profileTargets = []struct{ stem, fn string }{
	{"access_run", "repro/internal/core.(*Graph).AccessRun"},
	{"bus_observe", "repro/internal/obs.(*Bus).Observe"},
	{"decode_window", "repro/internal/tracelog.(*Reader).decodeWindow"},
	{"try_adopt", "repro/internal/server.(*sessionRun).tryAdopt"},
	{"clear_payload", "repro/internal/tracelog.(*EventBlock).clearPayload"},
	{"net_http", ""},
}

// profileShares reads a CPU profile (gzipped profile.proto, as
// runtime/pprof writes it) and returns the sample count of each target and
// the total sample count.
func profileShares(gz []byte) (counts map[string]int64, total int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts = map[string]int64{}
	for _, s := range p.samples {
		n := int64(1)
		if len(s.values) > 0 {
			n = s.values[0] // runtime/pprof's first value is the sample count
		}
		total += n
		hit := map[string]bool{}
		owner := ""
		// Locations run leaf first, and a location's lines innermost first.
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				name := p.str(p.funcNames[fid])
				for _, t := range profileTargets {
					if name == t.fn {
						hit[t.stem] = true
					}
				}
				if owner == "" && (strings.HasPrefix(name, "net/http.") || strings.HasPrefix(name, "repro/")) {
					owner = name
				}
			}
		}
		if strings.HasPrefix(owner, "net/http.") {
			hit["net_http"] = true
		}
		for stem := range hit {
			counts[stem] += n
		}
	}
	return counts, total, nil
}

type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofProfile struct {
	samples   []pprofSample
	locFuncs  map[uint64][]uint64 // location ID -> function IDs, inlined first
	funcNames map[uint64]int64    // function ID -> string table index
	strings   []string
}

func (p *pprofProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errProto = errors.New("malformed profile")

// decodeProfile decodes the profile.proto fields the shares need: samples
// (2), locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s pprofSample
			err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, w, v, m)
				case 2:
					var u []uint64
					if err := appendUints(&u, w, v, m); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line: function_id is field 1
					return eachField(m, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
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
			err := eachField(msg, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// appendUints appends a repeated integer field in either encoding: one
// varint, or a packed run.
func appendUints(dst *[]uint64, wire int, v uint64, msg []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

// eachField walks one protobuf message, handing each field's varint value
// (wire type 0) or byte payload (wire type 2) to fn. Fixed-width fields are
// skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
