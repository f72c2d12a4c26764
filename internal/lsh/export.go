package lsh

import (
	"math/bits"
	"slices"

	"semblock/internal/engine"
	"semblock/internal/record"
)

// AppendBlocks appends the blocks of one table's bucket store to dst and
// returns the extended slice. It is the single block export of the batch
// build (Blocker.Block) and of the streaming snapshot (internal/stream), so
// the two agree by construction.
//
// Plain LSH and AND mode file a record under the band key only when it
// collides with every member it meets there, so each bucket with at least
// two members is a block (engine.AppendBlocks). OR mode files a record
// under its band key whenever any of the table's w selected semhash bits is
// set, so a bucket may hold records that share no bit: each bucket is split
// into its per-bit sub-blocks — for each selected bit, the members that have
// it, kept if there are at least two (splitBuckets). The result is the
// block list of the bucket-per-bit keying (BucketKeys), order included.
//
// sems holds MaskWords() semhash words per record, indexed by record ID, for
// every record filed in tb; it is not read outside OR mode. copyIDs is as
// for engine.AppendBlocks: without it a block that is a whole bucket aliases
// the bucket's storage.
func (s *Signer) AppendBlocks(dst [][]record.ID, table int, tb *engine.Table, sems []uint64, copyIDs bool) [][]record.ID {
	if !s.or {
		return engine.AppendBlocks(dst, tb, 2, copyIDs)
	}
	return splitBuckets(dst, tb, sems, s.words, s.bits[table], s.sel[table*s.words:(table+1)*s.words], copyIDs)
}

// splitBuckets appends, for every bucket of tb with at least two members
// and for every bit of chosen in order, the bucket's members that have that
// bit set in their words-word mask in sems (indexed by record ID), as one
// block if there are at least two of them. sel is chosen as a mask.
//
// The blocks come out in the first-touch order of the bucket-per-bit
// keying, where (band key, bit) was a bucket of its own: a sub-bucket was
// touched first by its first member, and one record touched its sub-buckets
// in chosen order. So the order is (first member, position in chosen). A
// sub-block that starts with its bucket's first member is in place when
// buckets are walked in first-touch order and split in chosen order; one
// that starts later is set aside, and the few set aside are sorted by
// packed (first member, order set aside) keys and merged in. With members filed
// in ID order — batch builds, and the serving layer's ordered ingest —
// first member and first touch coincide.
//
// One pass over a bucket's masks finds the bits at least two members share
// (its blocks) and the bits all members share. A bit all members share
// makes the whole bucket the block, aliased (or copied once per bucket with
// copyIDs); only the others copy members out.
func splitBuckets(dst [][]record.ID, tb *engine.Table, sems []uint64, words int, chosen []int, sel []uint64, copyIDs bool) [][]record.ID {
	base := len(dst)
	var (
		arena []record.ID   // members of split and copied blocks, carved from chunks
		late  [][]record.ID // blocks that start after their bucket's first member
		keys  []uint64      // late's packed (first member, index) keys
		one   [3]uint64
		// Per bucket: the bits every member has, those at least two have,
		// and those some member has.
		every, twice, some = one[0:1], one[1:2], one[2:3]
	)
	if words > 1 {
		every, twice, some = make([]uint64, words), make([]uint64, words), make([]uint64, words)
	}
	// Most buckets that can hold a block yield exactly one: room for that
	// many up front saves growing dst through every doubling.
	dst = slices.Grow(dst, tb.Shared())
	tb.Buckets(func(_ uint64, ids []record.ID) {
		if len(ids) < 2 {
			return
		}
		blocks := 0 // chosen bits at least two members have
		if words == 1 {
			a, o, tw := sems[ids[0]], sems[ids[0]], uint64(0)
			for _, id := range ids[1:] {
				m := sems[id]
				tw |= o & m
				o |= m
				a &= m
			}
			every[0], twice[0] = a, tw
			blocks = bits.OnesCount64(tw & sel[0])
		} else {
			first := sems[int(ids[0])*words:]
			copy(every, first)
			copy(some, first)
			clear(twice)
			for _, id := range ids[1:] {
				m := sems[int(id)*words:]
				for i := range every {
					twice[i] |= some[i] & m[i]
					some[i] |= m[i]
					every[i] &= m[i]
				}
			}
			for i, m := range sel {
				blocks += bits.OnesCount64(twice[i] & m)
			}
		}
		whole := ids // the bucket as a block: aliased, or copied once
		if copyIDs {
			whole = nil
		}
		for _, bit := range chosen {
			if blocks == 0 {
				break
			}
			wi, bm := bit/64, uint64(1)<<(bit%64)
			if twice[wi]&bm == 0 {
				continue
			}
			blocks--
			var blk []record.ID
			switch {
			case every[wi]&bm == 0:
				arena = reserve(arena, len(ids))
				start := len(arena)
				for _, id := range ids {
					if sems[int(id)*words+wi]&bm != 0 {
						arena = append(arena, id)
					}
				}
				blk = arena[start:len(arena):len(arena)]
			case whole == nil:
				arena = reserve(arena, len(ids))
				start := len(arena)
				arena = append(arena, ids...)
				whole = arena[start:len(arena):len(arena)]
				blk = whole
			default:
				blk = whole
			}
			if blk[0] != ids[0] {
				keys = append(keys, uint64(uint32(blk[0]))<<32|uint64(len(late)))
				late = append(late, blk)
				continue
			}
			dst = append(dst, blk)
		}
	})
	if len(late) == 0 {
		return dst
	}
	// Merge the set-aside blocks in from the back. No in-place block shares
	// a first member with a set-aside one: that member would be its
	// bucket's first.
	slices.Sort(keys)
	i := len(dst) - 1
	dst = slices.Grow(dst, len(late))[:len(dst)+len(late)]
	for w, k := len(dst)-1, len(keys)-1; k >= 0; w-- {
		if blk := late[uint32(keys[k])]; i >= base && dst[i][0] > blk[0] {
			dst[w] = dst[i]
			i--
		} else {
			dst[w] = blk
			k--
		}
	}
	return dst
}

// reserve returns arena, or a fresh chunk in its place, with room for n
// more IDs, so appends within the reservation never move earlier blocks.
// Chunks double from 1024 to 1<<18 IDs, as engine.Table's member arena
// does: a table's export allocates O(log) of them and strands at most one
// chunk's tail at a time.
func reserve(arena []record.ID, n int) []record.ID {
	if cap(arena)-len(arena) >= n {
		return arena
	}
	return make([]record.ID, 0, max(n, min(2*cap(arena), 1<<18), 1024))
}
