package structures

import (
	"puddles/internal/pmem"
	"puddles/internal/pmlib"
)

// BTree is the order-8 B-tree of paper Fig. 10: up to 7 keys and 8
// children per node, 8-byte keys and values, one transaction per
// mutation.
//
// Node layout (offsets independent of reference width until children):
//
//	0   nkeys u64
//	8   leaf  u64
//	16  keys  [7]u64
//	72  vals  [7]u64
//	128 children [8]Ref
//
// The root object holds a single Ref to the current root node.
type BTree struct {
	lib      pmlib.Lib
	rootAddr pmem.Addr // address of the root Ref
	nodeSize uint32
	rs       uint32
}

// B-tree geometry.
const (
	btOrder   = 8
	btMaxKeys = btOrder - 1

	boNKeys = 0
	boLeaf  = 8
	boKeys  = 16
	boVals  = 72
	boKids  = 128
)

// NewBTree opens (or creates) the tree in lib's root object.
func NewBTree(lib pmlib.Lib) (*BTree, error) {
	rs := lib.RefSize()
	root, err := lib.Root(rs)
	if err != nil {
		return nil, err
	}
	return &BTree{
		lib:      lib,
		rootAddr: lib.Deref(root),
		nodeSize: boKids + btOrder*rs,
		rs:       rs,
	}, nil
}

func (t *BTree) dev() *pmem.Device { return t.lib.Device() }

func (t *BTree) nkeys(n pmem.Addr) int   { return int(t.dev().LoadU64(n + boNKeys)) }
func (t *BTree) isLeaf(n pmem.Addr) bool { return t.dev().LoadU64(n+boLeaf) != 0 }
func (t *BTree) key(n pmem.Addr, i int) uint64 {
	return t.dev().LoadU64(n + boKeys + pmem.Addr(i*8))
}
func (t *BTree) val(n pmem.Addr, i int) uint64 {
	return t.dev().LoadU64(n + boVals + pmem.Addr(i*8))
}
func (t *BTree) childRef(n pmem.Addr, i int) pmlib.Ref {
	return t.lib.LoadRef(n + boKids + pmem.Addr(uint32(i)*t.rs))
}
func (t *BTree) child(n pmem.Addr, i int) pmem.Addr {
	return t.lib.Deref(t.childRef(n, i))
}
func (t *BTree) childSlot(n pmem.Addr, i int) pmem.Addr {
	return n + boKids + pmem.Addr(uint32(i)*t.rs)
}

// Search returns the value for key (read-only pointer chase).
func (t *BTree) Search(key uint64) (uint64, bool) {
	n := t.lib.Deref(t.lib.LoadRef(t.rootAddr))
	for n != 0 {
		nk := t.nkeys(n)
		i := 0
		for i < nk && key > t.key(n, i) {
			i++
		}
		if i < nk && key == t.key(n, i) {
			return t.val(n, i), true
		}
		if t.isLeaf(n) {
			return 0, false
		}
		n = t.child(n, i)
	}
	return 0, false
}

// Insert adds or updates a key in one transaction.
func (t *BTree) Insert(key, val uint64) error {
	return t.lib.Run(func(tx pmlib.Tx) error {
		rootRef := t.lib.LoadRef(t.rootAddr)
		if rootRef.IsNull() {
			leaf, err := t.newNode(tx, true)
			if err != nil {
				return err
			}
			la := t.lib.Deref(leaf)
			if err := t.setKV(tx, la, 0, key, val); err != nil {
				return err
			}
			if err := tx.SetU64(la+boNKeys, 1); err != nil {
				return err
			}
			return tx.SetRef(t.rootAddr, leaf)
		}
		root := t.lib.Deref(rootRef)
		if t.nkeys(root) == btMaxKeys {
			// Split the root: new root with one child, then split down.
			newRootRef, err := t.newNode(tx, false)
			if err != nil {
				return err
			}
			nr := t.lib.Deref(newRootRef)
			if err := tx.SetRef(t.childSlot(nr, 0), rootRef); err != nil {
				return err
			}
			if err := t.splitChild(tx, nr, 0); err != nil {
				return err
			}
			if err := tx.SetRef(t.rootAddr, newRootRef); err != nil {
				return err
			}
			root = nr
		}
		return t.insertNonFull(tx, root, key, val)
	})
}

func (t *BTree) newNode(tx pmlib.Tx, leaf bool) (pmlib.Ref, error) {
	r, err := tx.Alloc(t.nodeSize)
	if err != nil {
		return pmlib.Null, err
	}
	if leaf {
		if err := tx.SetU64(t.lib.Deref(r)+boLeaf, 1); err != nil {
			return pmlib.Null, err
		}
	}
	return r, nil
}

func (t *BTree) setKV(tx pmlib.Tx, n pmem.Addr, i int, key, val uint64) error {
	if err := tx.SetU64(n+boKeys+pmem.Addr(i*8), key); err != nil {
		return err
	}
	return tx.SetU64(n+boVals+pmem.Addr(i*8), val)
}

// splitChild splits the full i-th child of parent (CLRS B-TREE-SPLIT).
func (t *BTree) splitChild(tx pmlib.Tx, parent pmem.Addr, i int) error {
	childRef := t.childRef(parent, i)
	child := t.lib.Deref(childRef)
	leaf := t.isLeaf(child)
	newRef, err := t.newNode(tx, leaf)
	if err != nil {
		return err
	}
	right := t.lib.Deref(newRef)
	const mid = btMaxKeys / 2 // 3: median index
	// Move keys/vals [mid+1, 7) to the new right node.
	for j := mid + 1; j < btMaxKeys; j++ {
		if err := t.setKV(tx, right, j-mid-1, t.key(child, j), t.val(child, j)); err != nil {
			return err
		}
	}
	if !leaf {
		for j := mid + 1; j < btOrder; j++ {
			if err := tx.SetRef(t.childSlot(right, j-mid-1), t.childRef(child, j)); err != nil {
				return err
			}
		}
	}
	if err := tx.SetU64(right+boNKeys, uint64(btMaxKeys-mid-1)); err != nil {
		return err
	}
	if err := tx.SetU64(child+boNKeys, uint64(mid)); err != nil {
		return err
	}
	// Shift the parent's keys and children right of slot i.
	nk := t.nkeys(parent)
	for j := nk - 1; j >= i; j-- {
		if err := t.setKV(tx, parent, j+1, t.key(parent, j), t.val(parent, j)); err != nil {
			return err
		}
	}
	for j := nk; j >= i+1; j-- {
		if err := tx.SetRef(t.childSlot(parent, j+1), t.childRef(parent, j)); err != nil {
			return err
		}
	}
	if err := t.setKV(tx, parent, i, t.key(child, mid), t.val(child, mid)); err != nil {
		return err
	}
	if err := tx.SetRef(t.childSlot(parent, i+1), newRef); err != nil {
		return err
	}
	return tx.SetU64(parent+boNKeys, uint64(nk+1))
}

func (t *BTree) insertNonFull(tx pmlib.Tx, n pmem.Addr, key, val uint64) error {
	for {
		nk := t.nkeys(n)
		i := 0
		for i < nk && key > t.key(n, i) {
			i++
		}
		if i < nk && key == t.key(n, i) { // update in place
			return tx.SetU64(n+boVals+pmem.Addr(i*8), val)
		}
		if t.isLeaf(n) {
			for j := nk - 1; j >= i; j-- {
				if err := t.setKV(tx, n, j+1, t.key(n, j), t.val(n, j)); err != nil {
					return err
				}
			}
			if err := t.setKV(tx, n, i, key, val); err != nil {
				return err
			}
			return tx.SetU64(n+boNKeys, uint64(nk+1))
		}
		if t.nkeys(t.child(n, i)) == btMaxKeys {
			if err := t.splitChild(tx, n, i); err != nil {
				return err
			}
			switch {
			case key > t.key(n, i):
				i++
			case key == t.key(n, i):
				return tx.SetU64(n+boVals+pmem.Addr(i*8), val)
			}
		}
		n = t.child(n, i)
	}
}

// Delete removes a key in one transaction. Internal keys swap with
// their in-order predecessor before leaf removal; underflowed nodes
// are not rebalanced (search correctness is unaffected).
func (t *BTree) Delete(key uint64) (bool, error) {
	found := false
	err := t.lib.Run(func(tx pmlib.Tx) error {
		n := t.lib.Deref(t.lib.LoadRef(t.rootAddr))
		for n != 0 {
			nk := t.nkeys(n)
			i := 0
			for i < nk && key > t.key(n, i) {
				i++
			}
			if i < nk && key == t.key(n, i) {
				found = true
				if t.isLeaf(n) {
					return t.removeFromLeaf(tx, n, i)
				}
				// Swap with the predecessor (max of left subtree).
				pn, pi := t.maxOf(t.child(n, i))
				if err := t.setKV(tx, n, i, t.key(pn, pi), t.val(pn, pi)); err != nil {
					return err
				}
				return t.removeFromLeaf(tx, pn, pi)
			}
			if t.isLeaf(n) {
				return nil // absent
			}
			n = t.child(n, i)
		}
		return nil
	})
	return found, err
}

// maxOf walks to the rightmost (leaf, index) under n.
func (t *BTree) maxOf(n pmem.Addr) (pmem.Addr, int) {
	for !t.isLeaf(n) {
		n = t.child(n, t.nkeys(n))
	}
	return n, t.nkeys(n) - 1
}

func (t *BTree) removeFromLeaf(tx pmlib.Tx, n pmem.Addr, i int) error {
	nk := t.nkeys(n)
	for j := i; j < nk-1; j++ {
		if err := t.setKV(tx, n, j, t.key(n, j+1), t.val(n, j+1)); err != nil {
			return err
		}
	}
	return tx.SetU64(n+boNKeys, uint64(nk-1))
}

// Walk visits all key/value pairs in ascending key order.
func (t *BTree) Walk(fn func(k, v uint64) bool) {
	t.walk(t.lib.Deref(t.lib.LoadRef(t.rootAddr)), fn)
}

func (t *BTree) walk(n pmem.Addr, fn func(k, v uint64) bool) bool {
	if n == 0 {
		return true
	}
	nk := t.nkeys(n)
	leaf := t.isLeaf(n)
	for i := 0; i < nk; i++ {
		if !leaf && !t.walk(t.child(n, i), fn) {
			return false
		}
		if !fn(t.key(n, i), t.val(n, i)) {
			return false
		}
	}
	if !leaf {
		return t.walk(t.child(n, nk), fn)
	}
	return true
}

// Depth returns the tree height (tests/diagnostics).
func (t *BTree) Depth() int {
	d := 0
	n := t.lib.Deref(t.lib.LoadRef(t.rootAddr))
	for n != 0 {
		d++
		if t.isLeaf(n) {
			break
		}
		n = t.child(n, 0)
	}
	return d
}
