package sim

import (
	"encoding/binary"
	"testing"

	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// inSlab reports whether the word at addr is held by one of m's slabs.
func inSlab(m *Memory, addr uint64) bool {
	return (addr-isa.GlobalBase)>>3 < uint64(len(m.globals)) || (addr-m.stackLo)>>3 < uint64(len(m.stack))
}

// TestWorkloadsStayInSlabs runs the seven workloads at train input, -O0 and
// -O3, one instruction at a time, and requires every load and store to land
// in the globals or the stack slab: the map is for addresses no compiled
// workload produces. A store is checked after it executes, so a store that
// grows the stack counts as a slab access.
func TestWorkloadsStayInSlabs(t *testing.T) {
	for _, name := range workloads.Names() {
		w := workloads.MustGet(name, workloads.Train)
		for level, opts := range map[string]compiler.Options{"-O0": compiler.O0(), "-O3": compiler.O3()} {
			prog, _, err := compiler.Compile(w.Parse(), opts)
			if err != nil {
				t.Fatal(err)
			}
			exe := NewExecutor(prog)
			for !exe.Halted {
				pc := exe.PC
				e, _, err := exe.Step()
				if err != nil {
					t.Fatalf("%s %s: %v", name, level, err)
				}
				if op := prog.Instrs[pc].Op; (op == isa.OpLoad || op == isa.OpStore) && !inSlab(exe.Mem, e.Addr) {
					t.Fatalf("%s %s: pc %d accesses %#x outside the slabs (globals %d bytes, stack %d bytes)",
						name, level, pc, e.Addr, 8*len(exe.Mem.globals), 8*len(exe.Mem.stack))
				}
			}
			if len(exe.Mem.other) != 0 {
				t.Fatalf("%s %s: %d words in the map", name, level, len(exe.Mem.other))
			}
		}
	}
}

// FuzzMemory drives stores and loads through the Memory that NewExecutor
// builds for a program of the fuzzed DataSize, against a map oracle keyed by
// word. Each 11-byte op picks a base (the globals' first and last word, the
// stack slab's current bottom and its top, the stack region's floor, 4 GiB,
// or a raw 64-bit address), a signed byte offset from it and a value to
// store, or loads the address and compares. Explore with
// `go test ./internal/sim -run '^$' -fuzz FuzzMemory`.
func FuzzMemory(f *testing.F) {
	f.Add(int64(64), []byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 1})
	f.Add(int64(1<<20+3), []byte{
		2, 0xf0, 9, 9, 9, 9, 9, 9, 9, 9, 0, // grow the stack below its bottom
		4, 0xf8, 7, 7, 7, 7, 7, 7, 7, 7, 0, // below the region's floor
		5, 0x09, 5, 5, 5, 5, 5, 5, 5, 5, 0, // above 4 GiB, unaligned
		1, 0x08, 3, 3, 3, 3, 3, 3, 3, 3, 0, // past the globals' end
	})
	f.Add(int64(-8), []byte{3, 0x80, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, dataSize int64, ops []byte) {
		dataSize %= 64 << 10 // a small slab keeps each run fast; TestGlobalsSlabIsBounded covers the bound
		m := NewExecutor(&isa.Program{DataSize: dataSize, Instrs: []isa.Instr{{Op: isa.OpHalt}}}).Mem
		ref := map[uint64]int64{}
		for ; len(ops) >= 11; ops = ops[11:] {
			var base uint64
			switch ops[0] % 7 {
			case 0:
				base = isa.GlobalBase
			case 1:
				base = isa.GlobalBase + uint64(max(dataSize, 0))
			case 2:
				base = m.stackLo
			case 3:
				base = isa.StackBase
			case 4:
				base = stackFloor
			case 5:
				base = 1 << 32
			case 6:
				base = binary.LittleEndian.Uint64(ops[2:])
			}
			addr := base + uint64(int64(int8(ops[1])))
			val := int64(binary.LittleEndian.Uint64(ops[2:]))
			if ops[10]&1 == 0 {
				m.Store(addr, val)
				ref[addr>>3] = val
			} else if got := m.Load(addr); got != ref[addr>>3] {
				t.Fatalf("load %#x = %d, want %d", addr, got, ref[addr>>3])
			}
		}
		for w, v := range ref {
			if got := m.Load(w << 3); got != v {
				t.Fatalf("word %#x reads %d, want %d", w<<3, got, v)
			}
		}
	})
}

// TestGlobalsSlabIsBounded: a program that declares more static data than
// maxGlobalBytes gets a slab of the bound, and its words above it live in
// the map.
func TestGlobalsSlabIsBounded(t *testing.T) {
	m := NewExecutor(&isa.Program{DataSize: 1 << 40, Instrs: []isa.Instr{{Op: isa.OpHalt}}}).Mem
	if got := 8 * len(m.globals); got != maxGlobalBytes {
		t.Fatalf("globals slab is %d bytes, want %d", got, maxGlobalBytes)
	}
	low, high := uint64(isa.GlobalBase+8), uint64(isa.GlobalBase+1<<39)
	m.Store(low, 1)
	m.Store(high, 2)
	if m.Load(low) != 1 || m.Load(high) != 2 || len(m.other) != 1 {
		t.Fatalf("loads %d, %d with %d words in the map, want 1, 2 with 1", m.Load(low), m.Load(high), len(m.other))
	}
}

// TestCacheLineZeroIsARealTag: a tag of 0 marks an invalid way, so line 0
// (instruction 0's IL1 line, address 0's data line) must miss in a fresh or
// freshly restored cache and then hit, at every associativity.
func TestCacheLineZeroIsARealTag(t *testing.T) {
	for _, assoc := range []int{1, 2, 4} {
		c := NewCache(1, assoc)
		empty := c.Snapshot()
		for round := 0; round < 2; round++ {
			if c.Access(0) {
				t.Fatalf("%d-way, round %d: line 0 hits in an empty cache", assoc, round)
			}
			if !c.Access(8) {
				t.Fatalf("%d-way, round %d: line 0 misses after its fill", assoc, round)
			}
			c.Restore(empty)
		}
	}
}
