package sim

// LineBytes is the cache line size at every level of the hierarchy.
const LineBytes = 64

// Cache is a set-associative cache with true-LRU replacement. It tracks tag
// state only; data is architecturally held by the executor.
type Cache struct {
	sets     int
	assoc    int
	setShift uint // log2(LineBytes)
	setMask  uint64
	tags     []uint64 // sets*assoc entries: line address + 1, 0 for an invalid way
	lru      []uint8  // age per way; 0 = most recent
	mru      []uint8  // most recently used way per set (its lru age is 0)
	Accesses int64
	Misses   int64
}

// NewCache builds a cache of sizeKB kilobytes with the given associativity.
// The set count is forced to at least 1 and rounded DOWN to a power of two
// so set selection is a mask, so a (sizeKB × assoc) combination whose set
// count is not a power of two silently models a smaller cache: e.g. 96 KB
// at 4 ways is 1536 lines = 384 sets, rounded to 256 sets = 64 KB. The
// paper's Table 2 levels are all powers of two, where rounding is a no-op.
func NewCache(sizeKB, assoc int) *Cache {
	lines := sizeKB * 1024 / LineBytes
	if assoc < 1 {
		assoc = 1
	}
	sets := lines / assoc
	if sets < 1 {
		sets = 1
	}
	// Round sets down to a power of two for mask indexing.
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	c := &Cache{
		sets:     sets,
		assoc:    assoc,
		setShift: 6, // log2(LineBytes)
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*assoc),
		lru:      make([]uint8, sets*assoc),
		mru:      make([]uint8, sets),
	}
	return c
}

// Access looks up the line containing addr, updating LRU state, and
// allocates it on miss. Returns true on hit. The MRU way of the set is
// probed first in an inlinable fast path: temporal locality makes it the
// overwhelmingly common hit, and because its age is already 0 the LRU aging
// loop is skipped entirely.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	line := addr >> c.setShift
	set := int(line & c.setMask)
	base := set * c.assoc
	if c.tags[base+int(c.mru[set])] == line+1 {
		return true // MRU hit: ages are already correct
	}
	return c.accessSlow(line+1, set, base)
}

// accessSlow probes the non-MRU ways and handles the miss/replacement path.
// tag is the line address + 1, as the tags array stores it: line 0 is a
// real line (instruction 0's), so 0 is left to mean an invalid way.
func (c *Cache) accessSlow(tag uint64, set, base int) bool {
	hitWay := -1
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == tag {
			hitWay = w
			break
		}
	}
	if hitWay >= 0 {
		c.touch(set, base, hitWay)
		return true
	}
	c.Misses++
	// Choose victim: invalid way first, else oldest.
	victim := 0
	oldest := uint8(0)
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == 0 {
			victim = w
			break
		}
		if c.lru[base+w] >= oldest {
			oldest = c.lru[base+w]
			victim = w
		}
	}
	c.tags[base+victim] = tag
	c.touch(set, base, victim)
	return false
}

func (c *Cache) touch(set, base, way int) {
	cur := c.lru[base+way]
	for w := 0; w < c.assoc; w++ {
		if c.lru[base+w] < cur {
			c.lru[base+w]++
		}
	}
	c.lru[base+way] = 0
	c.mru[set] = uint8(way)
}
