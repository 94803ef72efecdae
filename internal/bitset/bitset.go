// Package bitset provides the dense growable bitset of the Andersen solver.
package bitset

import "math/bits"

// Bitset is a growable dense bitset over small int indexes: the points-to
// set representation of the Andersen solver (which aliases it). The zero
// value is an empty set, Set grows the backing array on demand, and Has
// beyond the allocated range is simply false, so a set only ever pays for
// the index range it actually touches.
type Bitset struct {
	words []uint64
}

// Empty reports whether no bit is set.
func (b *Bitset) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Set sets bit i, reporting whether it was previously clear.
func (b *Bitset) Set(i int) bool {
	w := i >> 6
	if w >= len(b.words) {
		b.grow(w + 1)
	}
	mask := uint64(1) << uint(i&63)
	if b.words[w]&mask != 0 {
		return false
	}
	b.words[w] |= mask
	return true
}

// grow extends the word array to at least n words in a single allocation
// (with 50% headroom when reallocating), instead of appending word-by-word —
// the first Set of a high bit would otherwise pay a chain of doubling
// copies, which dominates allocation counts when many small sets are built.
func (b *Bitset) grow(n int) {
	if n <= cap(b.words) {
		tail := b.words[len(b.words):n]
		for i := range tail {
			tail[i] = 0
		}
		b.words = b.words[:n]
		return
	}
	nw := make([]uint64, n, n+n/2+2)
	copy(nw, b.words)
	b.words = nw
}

// Has reports whether bit i is set.
func (b *Bitset) Has(i int) bool {
	w := i >> 6
	if w >= len(b.words) {
		return false
	}
	return b.words[w]&(uint64(1)<<uint(i&63)) != 0
}

// OrChanged ors o into b, reporting whether b grew.
func (b *Bitset) OrChanged(o Bitset) bool {
	changed := false
	if len(b.words) < len(o.words) {
		b.grow(len(o.words))
	}
	for i, w := range o.words {
		if nw := b.words[i] | w; nw != b.words[i] {
			b.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Intersects reports whether b and o share a set bit.
func (b *Bitset) Intersects(o Bitset) bool {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if b.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls f with each set bit index, ascending.
func (b *Bitset) ForEach(f func(int)) {
	for wi, w := range b.words {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			f(wi<<6 + i)
			w &^= 1 << uint(i)
		}
	}
}

// Words exposes the backing words (read-only by convention), for
// serialisation.
func (b *Bitset) Words() []uint64 { return b.words }

// FromWords rebuilds a Bitset around words (takes ownership), the
// inverse of Words.
func FromWords(words []uint64) Bitset { return Bitset{words: words} }

// Reset clears the set, keeping the backing array for reuse.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}
