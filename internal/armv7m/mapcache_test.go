package armv7m

import (
	"encoding/binary"
	"reflect"
	"sync"
	"testing"

	"ticktock/internal/mpu"
)

// FuzzAccessMapCacheEquivalence drives two units sharing the
// process-wide map cache through random register writes, clears, raw
// bit flips, snapshot restores and control-bit toggles. After every step
// each unit's AccessMap must deep-equal a fresh Build of its own
// registers: a shared map is only sound if it is exactly the map the
// unit would have built.
func FuzzAccessMapCacheEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0x00, 0x00, 0x00, 0x20, 0x13, 0x00, 0x00, 0x03, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 1, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 3, 0x00, 0x04, 0x00, 0x20, 0x11, 0x42, 0x00, 0x06, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		units := [2]*MPUHardware{NewMPUHardware(), NewMPUHardware()}
		units[0].CtrlEnable, units[1].CtrlEnable = true, true
		var snaps []Snapshot
		// Each step is 10 bytes: op, region (its top bit picks the
		// unit), then two little-endian register words.
		for ; len(ops) >= 10; ops = ops[10:] {
			h := units[ops[1]>>7]
			region := int((ops[1] & 0x7f) % (NumRegions + 1)) // NumRegions is out of range
			a, b := binary.LittleEndian.Uint32(ops[2:]), binary.LittleEndian.Uint32(ops[6:])
			switch ops[0] % 7 {
			case 0:
				_ = h.WriteRegion(region, a, b) // validated path; rejects are fine
			case 1:
				_ = h.ClearRegion(region)
			case 2:
				h.FlipBits(region, a, b)
			case 3:
				snaps = append(snaps, h.Snapshot())
			case 4:
				// Restore an earlier state, on either unit: revisiting
				// contents is what makes the cache answer.
				if len(snaps) > 0 {
					h.Restore(snaps[int(a)%len(snaps)])
				}
			case 5:
				h.CtrlEnable = !h.CtrlEnable
			case 6:
				h.PrivDefEna = !h.PrivDefEna
			}
			for i, u := range units {
				if got, want := u.AccessMap(), u.buildAccessMap(); !reflect.DeepEqual(got, want) {
					t.Fatalf("unit %d: cached map differs from a fresh build of %+v", i, u.Snapshot())
				}
			}
		}
	})
}

// TestAccessMapCacheSharedAcrossGoroutines runs boards on two
// goroutines that program the same layouts in different orders, so
// each keeps finding maps the other built. Under -race it proves the
// cache's locking; in every mode it proves a shared map equals the
// reader's own fresh build.
func TestAccessMapCacheSharedAcrossGoroutines(t *testing.T) {
	layouts := make([][2]uint32, 16)
	for i := range layouts {
		base := uint32(0x2000_0000 + i*0x400)
		layouts[i] = [2]uint32{base, mkRASR(1024, uint8(i), mpu.ReadWriteOnly, true)}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				h := NewMPUHardware()
				h.CtrlEnable = true
				for i := range layouts {
					l := layouts[(i*(2*g+1)+round)%len(layouts)]
					if err := h.WriteRegion(i%NumRegions, l[0], l[1]); err != nil {
						errs <- err.Error()
						return
					}
					if !reflect.DeepEqual(h.AccessMap(), h.buildAccessMap()) {
						errs <- "shared map differs from the reader's own fresh build"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestAccessMapCacheBounded programs more distinct configurations than
// the cache may hold: it must stay at its bound, and a configuration
// evicted long ago must still derive the right map.
func TestAccessMapCacheBounded(t *testing.T) {
	h := NewMPUHardware()
	h.CtrlEnable = true
	first := h.Snapshot()
	firstMap := h.buildAccessMap()
	for i := 0; i < mapCacheBound+64; i++ {
		if err := h.WriteRegion(0, uint32(i)*32, mkRASR(32, 0, mpu.ReadOnly, true)); err != nil {
			t.Fatal(err)
		}
		h.AccessMap()
		if n := AccessMapCacheStats().Len; n > mapCacheBound {
			t.Fatalf("cache holds %d maps, bound is %d", n, mapCacheBound)
		}
	}
	h.Restore(first)
	if !reflect.DeepEqual(h.AccessMap(), firstMap) {
		t.Fatal("map re-derived after eviction differs from the original")
	}
}

// TestAccessMapCacheCountsHits checks the cache's own counters: a unit
// returning to a configuration it derived before is a hit, while
// MapBuilds still counts the re-derivation.
func TestAccessMapCacheCountsHits(t *testing.T) {
	h := NewMPUHardware()
	h.CtrlEnable = true
	if err := h.WriteRegion(0, 0x3000_0000, mkRASR(512, 0x81, mpu.ReadWriteExecute, true)); err != nil {
		t.Fatal(err)
	}
	h.AccessMap()
	snap := h.Snapshot()
	before := AccessMapCacheStats()
	builds := h.MapBuilds
	h.Restore(snap)
	h.AccessMap()
	after := AccessMapCacheStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("cache stats %+v -> %+v, want exactly one more hit", before, after)
	}
	if h.MapBuilds != builds+1 {
		t.Fatalf("MapBuilds = %d, want %d: a cache hit is still a derivation", h.MapBuilds, builds+1)
	}
}
