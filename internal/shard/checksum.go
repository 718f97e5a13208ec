package shard

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"repro/internal/plan"
)

// resultSum is the CRC-32 (IEEE) of a fragment result laid out as a fixed
// little-endian, length-prefixed byte stream, hashed in one pass without
// materializing the stream:
//
//	Count                         u64
//	len(MinMax)                   u64
//	  per entry: Var, bits(Lo), bits(Hi), N
//	Hist1 tag                     u8 (0 absent, 1 present)
//	  Var, Edges, Counts
//	Hist2 tag                     u8
//	  XVar, YVar, XEdges, YEdges, Counts
//	Sel                           []u64
//
// A string is its u64 byte length then its bytes; a slice is its u64
// element count then its elements; a float is its IEEE-754 bits, so NaN
// and ±Inf sum like any other value. Nil and empty slices sum alike (gob
// does not tell them apart either).
func resultSum(res *plan.FragmentResult) uint32 {
	var s summer
	s.u64(res.Count)
	s.u64(uint64(len(res.MinMax)))
	for _, r := range res.MinMax {
		s.str(r.Var)
		s.f64(r.Lo)
		s.f64(r.Hi)
		s.u64(r.N)
	}
	if h := res.Hist1; h == nil {
		s.tag(0)
	} else {
		s.tag(1)
		s.str(h.Var)
		s.f64s(h.Edges)
		s.u64s(h.Counts)
	}
	if h := res.Hist2; h == nil {
		s.tag(0)
	} else {
		s.tag(1)
		s.str(h.XVar)
		s.str(h.YVar)
		s.f64s(h.XEdges)
		s.f64s(h.YEdges)
		s.u64s(h.Counts)
	}
	s.u64s(res.Sel)
	return s.sum()
}

// summer feeds the checksum layout through a fixed staging buffer into a
// running CRC, so checksumming a large histogram allocates nothing.
type summer struct {
	crc uint32
	n   int
	buf [4096]byte
}

func (s *summer) flush() {
	s.crc = crc32.Update(s.crc, crc32.IEEETable, s.buf[:s.n])
	s.n = 0
}

func (s *summer) sum() uint32 {
	s.flush()
	return s.crc
}

func (s *summer) tag(b byte) {
	if s.n == len(s.buf) {
		s.flush()
	}
	s.buf[s.n] = b
	s.n++
}

func (s *summer) u64(v uint64) {
	if s.n+8 > len(s.buf) {
		s.flush()
	}
	binary.LittleEndian.PutUint64(s.buf[s.n:], v)
	s.n += 8
}

func (s *summer) f64(v float64) { s.u64(math.Float64bits(v)) }

func (s *summer) str(v string) {
	s.u64(uint64(len(v)))
	for len(v) > 0 {
		if s.n == len(s.buf) {
			s.flush()
		}
		c := copy(s.buf[s.n:], v)
		s.n += c
		v = v[c:]
	}
}

func (s *summer) u64s(vs []uint64) {
	s.u64(uint64(len(vs)))
	for _, v := range vs {
		s.u64(v)
	}
}

func (s *summer) f64s(vs []float64) {
	s.u64(uint64(len(vs)))
	for _, v := range vs {
		s.f64(v)
	}
}
