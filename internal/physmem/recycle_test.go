package physmem

import (
	"errors"
	"sync"
	"testing"
)

// Sizes no other test maps, so each free list below is this file's own.
const (
	recycleFlash = 0x10000 + 0x40
	recycleRAM   = 0x4000 + 0x80
)

func mapBoard(t *testing.T) (*Memory, *Segment, *Segment) {
	t.Helper()
	m := NewMemory()
	flash, err := m.Map("flash", 0, recycleFlash)
	if err != nil {
		t.Fatal(err)
	}
	ram, err := m.Map("ram", 0x2000_0000, recycleRAM)
	if err != nil {
		t.Fatal(err)
	}
	return m, flash, ram
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestReleasedMemoryComesBackZeroed: a board that wrote flash and RAM
// and was released hands its buffers to the next Map of the same size,
// and that board reads all-zero.
func TestReleasedMemoryComesBackZeroed(t *testing.T) {
	m, flash, ram := mapBoard(t)
	fill := make([]byte, recycleRAM)
	for i := range fill {
		fill[i] = byte(i) | 1
	}
	if err := m.WriteBytes(0, fill); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(0x2000_0000, fill); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteWord(recycleFlash-4, 0xFFFF_FFFF); err != nil {
		t.Fatal(err)
	}
	flashBuf, ramBuf := &flash.Data[0], &ram.Data[0]
	m.Release()

	_, flash2, ram2 := mapBoard(t)
	if &flash2.Data[0] != flashBuf || &ram2.Data[0] != ramBuf {
		t.Fatal("next board did not draw the released buffers")
	}
	if !allZero(flash2.Data) || !allZero(ram2.Data) {
		t.Fatal("recycled board reads bytes of the released one")
	}
}

// TestReleasedMemoryFailsClosed: every access after Release is a bus
// error, segments handed out earlier are detached, and a second Release
// cannot pool the same buffer twice.
func TestReleasedMemoryFailsClosed(t *testing.T) {
	m, flash, _ := mapBoard(t)
	if err := m.WriteWord(0x2000_0000, 0xAABBCCDD); err != nil {
		t.Fatal(err)
	}
	m.Release()
	if flash.Data != nil || len(m.Segments()) != 0 || m.Segment(0) != nil || flash.Contains(0) {
		t.Fatal("released memory still exposes a segment")
	}
	var be *BusError
	checks := map[string]error{
		"ReadWord":   func() error { _, err := m.ReadWord(0x2000_0000); return err }(),
		"LoadByte":   func() error { _, err := m.LoadByte(0); return err }(),
		"ReadBytes":  func() error { _, err := m.ReadBytes(0x2000_0000, 4); return err }(),
		"WriteWord":  m.WriteWord(0x2000_0000, 1),
		"StoreByte":  m.StoreByte(0, 1),
		"WriteBytes": m.WriteBytes(0, []byte{1}),
	}
	for name, err := range checks {
		if !errors.As(err, &be) {
			t.Errorf("%s after Release: err=%v, want *BusError", name, err)
		}
	}

	m.Release()
	_, a, _ := mapBoard(t)
	_, b, _ := mapBoard(t)
	if &a.Data[0] == &b.Data[0] {
		t.Fatal("double Release handed one buffer to two boards")
	}
}

// TestPoolConcurrentBoards builds, writes and releases boards from
// several goroutines at once; run it under -race. Every board must start
// all-zero whichever buffer it drew.
func TestPoolConcurrentBoards(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := NewMemory()
				if _, err := m.Map("ram", 0, recycleRAM); err != nil {
					t.Error(err)
					return
				}
				if v, err := m.ReadWord(recycleRAM - 4); err != nil || v != 0 {
					t.Errorf("worker %d board %d: fresh word = 0x%x, %v", w, i, v, err)
					return
				}
				if err := m.WriteWord(recycleRAM-4, uint32(w+1)); err != nil {
					t.Error(err)
					return
				}
				m.Release()
			}
		}(w)
	}
	wg.Wait()
}

// TestTrackDirtySeesLastBytes: a page whose only non-zero byte is its
// last, and a short final page of a segment, are both reported dirty
// when tracking starts; the all-zero pages around them are not.
func TestTrackDirtySeesLastBytes(t *testing.T) {
	m := NewMemory()
	const size = 4*DirtyPageSize + 16 // four full pages and a short one
	if _, err := m.Map("ram", 0x1000, size); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreByte(0x1000+2*DirtyPageSize-1, 0x80); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreByte(0x1000+size-1, 1); err != nil {
		t.Fatal(err)
	}
	m.TrackDirty()
	got := m.DrainDirty()
	want := []uint32{0x1000 + DirtyPageSize, 0x1000 + 4*DirtyPageSize}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("dirty pages = %#x, want %#x", got, want)
	}
}
