package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile for the percentile to be worth reporting.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs:
// the smallest sample with at least a q share of the samples at or
// below it. xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// minSamplesFor is the smallest sample count at which the nearest-rank
// q-quantile leaves minBeyond samples above it (assuming distinct
// values): n - ceil(q*n) >= minBeyond.
func minSamplesFor(q float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return n
		}
	}
}

// median is the midpoint of xs (the mean of the two middle samples for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive xs (NaN when any is not
// positive, so a broken input cannot hide in the average).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// deriveSeed derives a nonzero input seed from the run seed and an
// index path (variant, client, job, ...): distinct paths give distinct
// inputs, and the same run seed always gives the same ones.
func deriveSeed(seed int64, path ...int) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	for _, p := range path {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}
	return int64(h.Sum64()>>2) | 1
}

// budget is the instruction budget of one simulation: every core
// retires warmup + measure instructions before the run ends. Cores
// that finish early keep running until the slowest one is done, but
// only the budget counts as delivered work: counting fetched
// instructions would reward a slower slowest core.
type budget struct {
	Cores           int
	Warmup, Measure uint64
}

// instr is the run's budgeted instruction count.
func (b budget) instr() uint64 {
	return uint64(b.Cores) * (b.Warmup + b.Measure)
}

// sumInstr is the budgeted instructions of n runs of b.
func (b budget) sumInstr(n int) uint64 {
	return uint64(n) * b.instr()
}

// canonicalJSON re-encodes a JSON document with sorted object keys and
// no insignificant whitespace, keeping every number's literal text, so
// that two encodings of the same value compare byte for byte.
func canonicalJSON(doc []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("canonical json: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("canonical json: trailing data")
	}
	return json.Marshal(v)
}

// digest is the SHA-256 of v's canonical JSON encoding.
func digest(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return digestJSON(raw)
}

// digestJSON is the SHA-256 of an already encoded JSON document after
// canonicalisation.
func digestJSON(raw []byte) (string, error) {
	c, err := canonicalJSON(raw)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(c)
	return hex.EncodeToString(h[:]), nil
}
