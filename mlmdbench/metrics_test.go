package main

import "testing"

// steady returns n step times of 1 ms with every tenth step at 2 ms, so
// each chunk of 100 steps has its p90 at 1 ms.
func steady(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1
		if i%10 == 9 {
			xs[i] = 2
		}
	}
	return xs
}

func TestChunkTailDiscountsBurst(t *testing.T) {
	xs := steady(2000)
	// A burst slows every step of one chunk of 100.
	for i := 500; i < 600; i++ {
		xs[i] = 5
	}
	tail, q := chunkTail(xs)
	if tail != 1 || q != 0.9 {
		t.Fatalf("chunkTail = %v, p%v; want 1 ms at p90", tail, 100*q)
	}
	// The whole loop's p90 is moved by the burst.
	if whole := quantile(append([]float64(nil), xs...), 0.9); whole != 2 {
		t.Fatalf("whole-loop p90 = %v, want 2", whole)
	}
}

func TestChunkTailShortLoopIsOneChunk(t *testing.T) {
	for _, n := range []int{5, 50, 150, 199} {
		xs := steady(n)
		tail, q := chunkTail(xs)
		wantQ := tailQuantile(n)
		want := quantile(append([]float64(nil), xs...), wantQ)
		if tail != want || q != wantQ {
			t.Errorf("n=%d: chunkTail = %v at q %v, want %v at q %v", n, tail, q, want, wantQ)
		}
	}
}
