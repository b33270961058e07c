// Package a exercises rngstream: explicit seeded streams only, no
// time seeds.
package a

import (
	"math/rand"
	"time"
)

// explicitStream is the blessed shape: a seed from the caller, an
// explicit source, draws on the local stream.
func explicitStream(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

// globalDraws use the process-wide source.
func globalDraws(n int) int {
	v := rand.Intn(n)                  // want `global rand.Intn draws from process-wide state`
	rand.Shuffle(n, func(i, j int) {}) // want `global rand.Shuffle draws from process-wide state`
	return v
}

// timeSeeds make runs unrepeatable.
func timeSeeds() *rand.Rand {
	rand.Seed(time.Now().UnixNano())                       // want `time-derived seed passed to rand.Seed`
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `time-derived seed passed to rand.NewSource`
}

// globalDrawInWorker draws from the global source inside a goroutine;
// the global-draw rule flags it wherever the call sits.
func globalDrawInWorker(done chan<- int) {
	go func() {
		done <- rand.Intn(10) // want `global rand.Intn draws from process-wide state`
	}()
}
