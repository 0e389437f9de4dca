package interp

// Region is a contiguous allocated object. Pointer-typed function arguments
// each receive their own region so that distinct arguments never alias,
// matching how the verification harness sets up inputs.
type Region struct {
	Name   string
	Addr   uint64
	Data   []byte
	Poison []bool // per-byte poison (set by stores of poison lanes)
}

// Memory is a set of disjoint regions in a single address space.
type Memory struct {
	Regions []*Region
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// AddRegion allocates a region of the given size at the given base address.
func (m *Memory) AddRegion(name string, addr uint64, size int) *Region {
	r := &Region{Name: name, Addr: addr, Data: make([]byte, size), Poison: make([]bool, size)}
	m.Regions = append(m.Regions, r)
	return r
}

// FindRegion returns the region containing addr, or nil.
func (m *Memory) FindRegion(addr uint64) *Region {
	for _, r := range m.Regions {
		if addr >= r.Addr && addr < r.Addr+uint64(len(r.Data)) {
			return r
		}
	}
	return nil
}

// Contains reports whether [addr, addr+n) lies entirely within one region.
func (m *Memory) Contains(addr uint64, n int) bool {
	r := m.FindRegion(addr)
	if r == nil {
		return false
	}
	return addr+uint64(n) <= r.Addr+uint64(len(r.Data))
}

// LoadBytes reads n bytes; ok is false if the access is out of bounds (UB).
func (m *Memory) LoadBytes(addr uint64, n int) (data []byte, poison []bool, ok bool) {
	r := m.FindRegion(addr)
	if r == nil || addr+uint64(n) > r.Addr+uint64(len(r.Data)) {
		return nil, nil, false
	}
	off := addr - r.Addr
	return r.Data[off : off+uint64(n)], r.Poison[off : off+uint64(n)], true
}

// StoreBytes writes n bytes; ok is false if the access is out of bounds (UB).
func (m *Memory) StoreBytes(addr uint64, data []byte, poison []bool) bool {
	r := m.FindRegion(addr)
	if r == nil || addr+uint64(len(data)) > r.Addr+uint64(len(r.Data)) {
		return false
	}
	off := addr - r.Addr
	copy(r.Data[off:], data)
	copy(r.Poison[off:], poison)
	return true
}

// BatchMems carves per-lane memories for lane-batched execution out of
// lane-strided slabs: region r of lane b views bytes [b*size, (b+1)*size)
// of one shared allocation, so a whole batch of memories costs two
// allocations per region (data + poison shadow) and resetting a lane
// between fills touches contiguous bytes. Every lane is an independent
// address space — regions live at the same base address in each lane's
// Memory without aliasing.
type BatchMems struct {
	Mems  []*Memory // one per lane, sharing the slab-backed regions
	lanes int
}

// NewBatchMems returns a BatchMems with the given number of lanes (one
// empty Memory each).
func NewBatchMems(lanes int) *BatchMems {
	bm := &BatchMems{Mems: make([]*Memory, lanes), lanes: lanes}
	for b := range bm.Mems {
		bm.Mems[b] = NewMemory()
	}
	return bm
}

// AddRegion adds a region of the given size at the same base address to
// every lane's memory, backed by one lane-strided slab.
func (bm *BatchMems) AddRegion(name string, addr uint64, size int) {
	data := make([]byte, bm.lanes*size)
	poison := make([]bool, bm.lanes*size)
	for b, m := range bm.Mems {
		m.Regions = append(m.Regions, &Region{
			Name: name, Addr: addr,
			Data:   data[b*size : (b+1)*size : (b+1)*size],
			Poison: poison[b*size : (b+1)*size : (b+1)*size],
		})
	}
}

// ResetLane restores lane b of region r to the given initial contents —
// zero past the end of a short data, as in a freshly added region — and
// clears its poison shadow, preparing the lane for the next fill. The
// lane's bytes are contiguous in the slab, so a reset is two small copies.
func (bm *BatchMems) ResetLane(r, b int, data []byte) {
	reg := bm.Mems[b].Regions[r]
	clear(reg.Data[copy(reg.Data, data):])
	for i := range reg.Poison {
		reg.Poison[i] = false
	}
}

// Clone returns a deep copy (used to run src and tgt on identical initial
// memories and to diff the results).
func (m *Memory) Clone() *Memory {
	n := &Memory{}
	for _, r := range m.Regions {
		nr := &Region{Name: r.Name, Addr: r.Addr,
			Data: append([]byte(nil), r.Data...), Poison: append([]bool(nil), r.Poison...)}
		n.Regions = append(n.Regions, nr)
	}
	return n
}
