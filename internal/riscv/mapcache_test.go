package riscv

import (
	"encoding/binary"
	"reflect"
	"sync"
	"testing"

	"ticktock/internal/mpu"
)

// FuzzAccessMapCacheEquivalence drives units of every chip — sharing
// the process-wide map cache, and sharing keys across chips whose entry
// counts agree — through random CSR writes, clears and raw bit flips (a
// flip repeated is a restore of the earlier contents). After every step
// each unit's AccessMap must deep-equal a fresh Build of its own CSRs.
func FuzzAccessMapCacheEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0x1b, 0x07, 0x00, 0x00, 0x20, 0, 0, 0, 0})
	f.Add([]byte{0, 0x81, 0x0b, 0x00, 0x10, 0x00, 0x20, 0, 0, 0, 0, 2, 0x81, 0x0b, 0x00, 0x10, 0x00, 0x20, 0, 0, 0, 0, 2, 0x81, 0x0b, 0x00, 0x10, 0x00, 0x20, 0, 0, 0, 0})
	f.Add([]byte{2, 0x42, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 0x42, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		units := make([]*PMP, 0, 2*len(Chips))
		for _, c := range Chips {
			units = append(units, NewPMP(c), NewPMP(c))
		}
		// Each step is 11 bytes: op, unit/entry selector, cfg byte,
		// pmpaddr word, then an xor word for the address flip.
		for ; len(ops) >= 11; ops = ops[11:] {
			p := units[int(ops[1]>>4)%len(units)]
			entry := int(ops[1]&0x0f) % (p.Chip.Entries + 1) // Entries is out of range
			cfg := ops[2]
			addr, xor := binary.LittleEndian.Uint32(ops[3:]), binary.LittleEndian.Uint32(ops[7:])
			switch ops[0] % 3 {
			case 0:
				_ = p.SetEntry(entry, cfg, addr) // validated path; rejects are fine
			case 1:
				_ = p.ClearEntry(entry)
			case 2:
				p.FlipBits(entry, cfg, xor)
			}
			for i, u := range units {
				if got, want := u.AccessMap(), u.buildAccessMap(); !reflect.DeepEqual(got, want) {
					t.Fatalf("unit %d (%s): cached map differs from a fresh build", i, u.Chip.Name)
				}
			}
		}
	})
}

// TestAccessMapCacheSharedAcrossGoroutines runs PMPs on two goroutines
// that program the same NAPOT layouts in different orders, so each
// keeps finding maps the other built. Under -race it proves the cache's
// locking; in every mode it proves a shared map equals the reader's own
// fresh build.
func TestAccessMapCacheSharedAcrossGoroutines(t *testing.T) {
	layouts := make([]uint32, 16)
	for i := range layouts {
		reg, err := EncodeNAPOT(uint32(0x8000_0000+i*0x400), 0x400)
		if err != nil {
			t.Fatal(err)
		}
		layouts[i] = reg
	}
	cfg := EncodeCfg(mpu.ReadWriteOnly, ANapot)
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				p := NewPMP(ChipLiteX)
				for i := range layouts {
					reg := layouts[(i*(2*g+1)+round)%len(layouts)]
					if err := p.SetEntry(i%p.Chip.Entries, cfg, reg); err != nil {
						errs <- err.Error()
						return
					}
					if !reflect.DeepEqual(p.AccessMap(), p.buildAccessMap()) {
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
	p := NewPMP(ChipHiFive1)
	firstMap := p.buildAccessMap()
	cfg := EncodeCfg(mpu.ReadOnly, ATor)
	for i := 1; i <= mapCacheBound+64; i++ {
		if err := p.SetEntry(0, cfg, uint32(i)); err != nil {
			t.Fatal(err)
		}
		p.AccessMap()
		if n := AccessMapCacheStats().Len; n > mapCacheBound {
			t.Fatalf("cache holds %d maps, bound is %d", n, mapCacheBound)
		}
	}
	if err := p.ClearEntry(0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.AccessMap(), firstMap) {
		t.Fatal("map re-derived after eviction differs from the original")
	}
}

// TestAccessMapCacheCountsHits checks the cache's own counters: a second
// unit programmed like the first is a hit, and both units' MapBuilds
// still count their own derivation.
func TestAccessMapCacheCountsHits(t *testing.T) {
	reg, err := EncodeNAPOT(0x8004_0000, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := EncodeCfg(mpu.ReadWriteExecute, ANapot)
	a, b := NewPMP(ChipESP32C3), NewPMP(ChipESP32C3)
	if err := a.SetEntry(3, cfg, reg); err != nil {
		t.Fatal(err)
	}
	a.AccessMap()
	before := AccessMapCacheStats()
	if err := b.SetEntry(3, cfg, reg); err != nil {
		t.Fatal(err)
	}
	if b.AccessMap() != a.AccessMap() {
		t.Fatal("equal CSR contents did not share one map")
	}
	after := AccessMapCacheStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("cache stats %+v -> %+v, want exactly one more hit", before, after)
	}
	if a.MapBuilds != 1 || b.MapBuilds != 1 {
		t.Fatalf("MapBuilds a=%d b=%d, want 1 each", a.MapBuilds, b.MapBuilds)
	}
}
