package andersen

import "parcfl/internal/bitset"

// Bitset is the dense points-to set representation of the Andersen solver;
// the implementation lives in internal/bitset.
type Bitset = bitset.Bitset

// BitsetFromWords re-exports bitset.BitsetFromWords.
func BitsetFromWords(words []uint64) Bitset { return bitset.FromWords(words) }
