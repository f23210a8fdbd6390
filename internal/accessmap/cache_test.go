package accessmap

import "testing"

// TestCacheBoundAndCounts fills a small cache past its bound: it never
// holds more than the bound, every lookup is a hit or a miss, and a
// hit returns the very map that was built.
func TestCacheBoundAndCounts(t *testing.T) {
	c := NewCache[int](4)
	builds := 0
	build := func() *Map {
		builds++
		return Build(nil, windowChecker(0, 16))
	}
	m := c.Get(0, build)
	if got := c.Get(0, build); got != m {
		t.Fatal("hit returned a different map than the one built")
	}
	for k := 1; k < 20; k++ {
		c.Get(k, build)
		if s := c.Stats(); s.Len > 4 {
			t.Fatalf("cache holds %d maps, bound 4", s.Len)
		}
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 20 || builds != 20 || s.Len != 4 {
		t.Fatalf("stats %+v after %d builds, want 1 hit, 20 misses, 20 builds, len 4", s, builds)
	}
}
