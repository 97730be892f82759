package permissions

import "math/bits"

// maxPermissions is the registry capacity a Set can hold.
const maxPermissions = 128

// Set is a fixed-size set of registered permissions, one bit per dense
// Index. The zero value is the empty set. Sets are values: the methods
// that combine them return a new Set and never allocate.
type Set [maxPermissions / 64]uint64

// Add inserts the permission with dense index i.
func (s *Set) Add(i int) { s[i>>6] |= 1 << (i & 63) }

// Remove deletes the permission with dense index i.
func (s *Set) Remove(i int) { s[i>>6] &^= 1 << (i & 63) }

// Has reports whether the permission with dense index i is in s.
func (s Set) Has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }

// And returns the intersection of s and t.
func (s Set) And(t Set) Set {
	for w := range s {
		s[w] &= t[w]
	}
	return s
}

// Or returns the union of s and t.
func (s Set) Or(t Set) Set {
	for w := range s {
		s[w] |= t[w]
	}
	return s
}

// AndNot returns the permissions in s that are not in t.
func (s Set) AndNot(t Set) Set {
	for w := range s {
		s[w] &^= t[w]
	}
	return s
}

// Names returns the names of the permissions in s in registration
// order, or nil when s is empty.
func (s Set) Names() []string {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for w, word := range s {
		for word != 0 {
			out = append(out, registry[w*64+bits.TrailingZeros64(word)].Name)
			word &= word - 1
		}
	}
	return out
}

// SetOf returns the set of registered permissions matching keep.
func SetOf(keep func(Permission) bool) Set {
	var s Set
	for i, p := range registry {
		if keep(p) {
			s.Add(i)
		}
	}
	return s
}
