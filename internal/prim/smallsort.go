package prim

// SortInt32Small sorts a ascending without allocating: insertion sort below
// a threshold and an in-place MSD radix sort (American flag style, 8-bit
// digits) above it. It is built for many small-to-medium sorts — the
// sample sort's buckets and its own small inputs — where the closure and
// reflection overhead of sort.Slice dominates; unlike the parallel
// SortInt32 it never spawns parallel work, so it can be called from inside
// parallel loop bodies. Negative values sort correctly (the top digit is
// sign-biased).
func SortInt32Small(a []int32) {
	if len(a) <= smallSortThreshold {
		insertionInt32(a)
		return
	}
	msdRadixInt32(a, 24)
}

// smallSortThreshold is where insertion sort stops winning over a radix
// pass; 48 is a conservative crossover for int32 payloads.
const smallSortThreshold = 48

func insertionInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// digit extracts the byte of v at shift, biasing the sign bit on the top
// byte so that negative values order before non-negative ones.
func digit(v int32, shift uint) int {
	b := (uint32(v) >> shift) & 0xFF
	if shift == 24 {
		b ^= 0x80
	}
	return int(b)
}

// msdRadixInt32 sorts a by the byte at shift with an in-place cycle-chasing
// permutation (American flag sort), then recurses on each bucket with the
// next byte. Recursion depth is at most 4; the per-level counter arrays
// live on the stack.
func msdRadixInt32(a []int32, shift uint) {
	var count [256]int32
	for _, v := range a {
		count[digit(v, shift)]++
	}
	var off, start, end [256]int32
	sum := int32(0)
	for b := 0; b < 256; b++ {
		off[b] = sum
		start[b] = sum
		sum += count[b]
		end[b] = sum
	}
	for b := 0; b < 256; b++ {
		i := off[b]
		for i < end[b] {
			d := digit(a[i], shift)
			if d == b {
				i++
			} else {
				a[i], a[off[d]] = a[off[d]], a[i]
				off[d]++
			}
		}
	}
	if shift == 0 {
		return
	}
	for b := 0; b < 256; b++ {
		seg := a[start[b]:end[b]]
		if len(seg) < 2 {
			continue
		}
		if len(seg) <= smallSortThreshold {
			insertionInt32(seg)
		} else {
			msdRadixInt32(seg, shift-8)
		}
	}
}
