package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"agcm/internal/core"
)

// reportDigest fingerprints the parts of a model report that the
// simulated machine fixes exactly: the critical-path time, the traffic
// counts, the final stability diagnostic and every rank's virtual clock.
// Equal digests mean bit-equal values, so any change to the algorithm, the
// cost model or the message pattern changes the digest.
func reportDigest(rep *core.Report) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	put(float64(rep.Ranks))
	put(float64(rep.Steps))
	put(rep.Total)
	put(rep.MessagesPerStep)
	put(rep.BytesPerStep)
	put(rep.MaxAbsH)
	if rep.Raw != nil {
		for _, c := range rep.Raw.Clocks {
			put(c)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
