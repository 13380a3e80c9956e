// Package mem provides the flat physical memory shared by all cores and the
// address-arithmetic helpers (cache-line, set and LLC-slice extraction) used
// throughout the simulator.
package mem

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache line size used by every cache level.
const LineBytes = 64

// LineShift is log2(LineBytes).
const LineShift = 6

// pageWords is the number of 8-byte words per memory page (4KB pages).
const pageWords = 512

// pageShift is log2(pageWords), applied to word numbers.
const pageShift = 9

// page is one 4KB chunk of backing store. written marks the words ever
// written, so Reset zeroes only those without a separate index.
type page struct {
	words   [pageWords]int64
	written [pageWords / 64]uint64
}

// Memory is a sparse, word-granular physical memory backed by a paged
// dense store: every load and store in the simulator lands here, so the
// hot path is shift/mask indexing into a 4KB array rather than a map
// probe. Addresses are byte addresses; reads and writes operate on
// naturally-aligned 8-byte words (unaligned accesses are truncated to
// their containing word, which is all the ISA needs). Unwritten memory
// reads as zero.
type Memory struct {
	pages map[int64]*page
	// lastIdx/lastPage memoize the most recently touched page — trial
	// working sets cluster, so nearly every access hits the memo.
	lastIdx  int64
	lastPage *page
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[int64]*page), lastIdx: -1 << 62}
}

// pageAt returns the page holding word number w, creating it if create is
// set; otherwise it may return nil (unwritten memory).
func (m *Memory) pageAt(w int64, create bool) *page {
	idx := w >> pageShift
	if idx == m.lastIdx {
		return m.lastPage
	}
	p := m.pages[idx]
	if p == nil {
		if !create {
			return nil
		}
		p = &page{}
		m.pages[idx] = p
	}
	m.lastIdx, m.lastPage = idx, p
	return p
}

// Read64 returns the word containing addr.
func (m *Memory) Read64(addr int64) int64 {
	w := addr >> 3
	p := m.pageAt(w, false)
	if p == nil {
		return 0
	}
	return p.words[w&(pageWords-1)]
}

// Write64 stores v into the word containing addr.
func (m *Memory) Write64(addr int64, v int64) {
	w := addr >> 3
	p := m.pageAt(w, true)
	off := w & (pageWords - 1)
	p.words[off] = v
	p.written[off>>6] |= uint64(1) << uint(off&63)
}

// Reset makes the memory observably identical to New() while keeping the
// allocated pages, so steady-state reuse (internal/core.TrialState) pays no
// allocation to start over. Only words actually written are zeroed —
// O(words written), not O(capacity).
func (m *Memory) Reset() {
	for _, p := range m.pages {
		for i, w := range p.written {
			for ; w != 0; w &= w - 1 {
				p.words[i<<6|bits.TrailingZeros64(w)] = 0
			}
			p.written[i] = 0
		}
	}
}

// WordAddr returns the address of the 8-byte word containing addr: the
// unit Read64 and Write64 access.
func WordAddr(addr int64) int64 { return addr &^ 7 }

// LineAddr returns the address of the cache line containing addr.
func LineAddr(addr int64) int64 { return addr &^ (LineBytes - 1) }

// LineOf returns the line number (address / LineBytes).
func LineOf(addr int64) int64 { return addr >> LineShift }

// SameLine reports whether two addresses share a cache line.
func SameLine(a, b int64) bool { return LineAddr(a) == LineAddr(b) }

// SetIndex extracts the set index for a cache with numSets sets (must be a
// power of two) from the line number.
func SetIndex(addr int64, numSets int) int {
	if numSets&(numSets-1) != 0 || numSets <= 0 {
		panic(fmt.Sprintf("mem: numSets %d is not a positive power of two", numSets))
	}
	return int(LineOf(addr) & int64(numSets-1))
}

// SliceIndex computes the LLC slice for an address by XOR-folding the line
// number, mimicking (not matching) Intel's undocumented slice hash: it
// spreads consecutive lines across slices while remaining deterministic and
// invertible enough for eviction-set construction from known geometry.
func SliceIndex(addr int64, numSlices int) int {
	if numSlices <= 0 {
		panic(fmt.Sprintf("mem: numSlices %d must be positive", numSlices))
	}
	if numSlices == 1 {
		return 0
	}
	if numSlices&(numSlices-1) != 0 {
		panic(fmt.Sprintf("mem: numSlices %d is not a power of two", numSlices))
	}
	line := uint64(LineOf(addr))
	h := line ^ (line >> 7) ^ (line >> 13) ^ (line >> 21)
	return int(h & uint64(numSlices-1))
}
