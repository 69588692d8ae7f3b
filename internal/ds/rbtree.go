package ds

import (
	"fmt"

	"deferstm/internal/stm"
)

// RBTree is a transactional red-black tree map from int64 to V. Nodes are
// immutable (persistent): mutations rebuild the root-to-target path and
// publish the new root through a single Var, so structural rebalancing —
// the paper's motivating "hard to lock" operation — is trivially atomic.
// Writers conflict with each other on the root; readers run in parallel
// and validate against it.
//
// Insertion is Okasaki's functional balancing; deletion is Kahrs'
// functional formulation.
type RBTree[V any] struct {
	root stm.Var[*rbNode[V]]
	size stm.Var[int]
}

type rbNode[V any] struct {
	red         bool
	left, right *rbNode[V]
	key         int64
	val         V
}

// NewRBTree returns an empty tree.
func NewRBTree[V any]() *RBTree[V] { return &RBTree[V]{} }

func isRed[V any](n *rbNode[V]) bool { return n != nil && n.red }

func mk[V any](red bool, l *rbNode[V], k int64, v V, r *rbNode[V]) *rbNode[V] {
	return &rbNode[V]{red: red, left: l, right: r, key: k, val: v}
}

func blacken[V any](n *rbNode[V]) *rbNode[V] {
	if n == nil || !n.red {
		return n
	}
	return mk(false, n.left, n.key, n.val, n.right)
}

// sub1 demotes a black node to red (used when a black sibling's subtree
// gives up one unit of black height). Calling it on a red or nil node
// would mean the tree invariants were already broken.
func sub1[V any](n *rbNode[V]) *rbNode[V] {
	if n == nil || n.red {
		panic("ds: red-black invariant violation (sub1)")
	}
	return mk(true, n.left, n.key, n.val, n.right)
}

// balance resolves a single red-red violation beneath a black parent
// (Okasaki's four rotation cases, plus Kahrs' both-red recoloring).
func balance[V any](l *rbNode[V], k int64, v V, r *rbNode[V]) *rbNode[V] {
	if isRed(l) && isRed(r) {
		return mk(true, blacken(l), k, v, blacken(r))
	}
	if isRed(l) {
		if isRed(l.left) {
			return mk(true, blacken(l.left), l.key, l.val, mk(false, l.right, k, v, r))
		}
		if isRed(l.right) {
			lr := l.right
			return mk(true, mk(false, l.left, l.key, l.val, lr.left), lr.key, lr.val,
				mk(false, lr.right, k, v, r))
		}
	}
	if isRed(r) {
		if isRed(r.right) {
			return mk(true, mk(false, l, k, v, r.left), r.key, r.val, blacken(r.right))
		}
		if isRed(r.left) {
			rl := r.left
			return mk(true, mk(false, l, k, v, rl.left), rl.key, rl.val,
				mk(false, rl.right, r.key, r.val, r.right))
		}
	}
	return mk(false, l, k, v, r)
}

func ins[V any](n *rbNode[V], k int64, v V) (*rbNode[V], bool) {
	if n == nil {
		return mk(true, nil, k, v, nil), true
	}
	switch {
	case k < n.key:
		l, added := ins(n.left, k, v)
		if n.red {
			return mk(true, l, n.key, n.val, n.right), added
		}
		return balance(l, n.key, n.val, n.right), added
	case k > n.key:
		r, added := ins(n.right, k, v)
		if n.red {
			return mk(true, n.left, n.key, n.val, r), added
		}
		return balance(n.left, n.key, n.val, r), added
	default:
		return mk(n.red, n.left, k, v, n.right), false
	}
}

// balleft rebuilds after the left subtree lost one black unit.
func balleft[V any](l *rbNode[V], k int64, v V, r *rbNode[V]) *rbNode[V] {
	switch {
	case isRed(l):
		return mk(true, blacken(l), k, v, r)
	case r != nil && !r.red:
		return balance(l, k, v, sub1(r))
	case r != nil && r.red && r.left != nil && !r.left.red:
		rl := r.left
		return mk(true, mk(false, l, k, v, rl.left), rl.key, rl.val,
			balance(rl.right, r.key, r.val, sub1(r.right)))
	default:
		panic("ds: red-black invariant violation (balleft)")
	}
}

// balright rebuilds after the right subtree lost one black unit.
func balright[V any](l *rbNode[V], k int64, v V, r *rbNode[V]) *rbNode[V] {
	switch {
	case isRed(r):
		return mk(true, l, k, v, blacken(r))
	case l != nil && !l.red:
		return balance(sub1(l), k, v, r)
	case l != nil && l.red && l.right != nil && !l.right.red:
		lr := l.right
		return mk(true, balance(sub1(l.left), l.key, l.val, lr.left), lr.key, lr.val,
			mk(false, lr.right, k, v, r))
	default:
		panic("ds: red-black invariant violation (balright)")
	}
}

// app fuses the two subtrees of a deleted node (Kahrs).
func app[V any](l, r *rbNode[V]) *rbNode[V] {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.red && r.red:
		m := app(l.right, r.left)
		if isRed(m) {
			return mk(true, mk(true, l.left, l.key, l.val, m.left), m.key, m.val,
				mk(true, m.right, r.key, r.val, r.right))
		}
		return mk(true, l.left, l.key, l.val, mk(true, m, r.key, r.val, r.right))
	case !l.red && !r.red:
		m := app(l.right, r.left)
		if isRed(m) {
			return mk(true, mk(false, l.left, l.key, l.val, m.left), m.key, m.val,
				mk(false, m.right, r.key, r.val, r.right))
		}
		return balleft(l.left, l.key, l.val, mk(false, m, r.key, r.val, r.right))
	case r.red:
		return mk(true, app(l, r.left), r.key, r.val, r.right)
	default: // l.red
		return mk(true, l.left, l.key, l.val, app(l.right, r))
	}
}

func del[V any](n *rbNode[V], k int64) (*rbNode[V], bool) {
	if n == nil {
		return nil, false
	}
	switch {
	case k < n.key:
		l, removed := del(n.left, k)
		if !removed {
			return n, false
		}
		if n.left != nil && !n.left.red {
			return balleft(l, n.key, n.val, n.right), true
		}
		return mk(true, l, n.key, n.val, n.right), true
	case k > n.key:
		r, removed := del(n.right, k)
		if !removed {
			return n, false
		}
		if n.right != nil && !n.right.red {
			return balright(n.left, n.key, n.val, r), true
		}
		return mk(true, n.left, n.key, n.val, r), true
	default:
		return app(n.left, n.right), true
	}
}

// Insert adds or replaces k, returning true if the key was new.
func (t *RBTree[V]) Insert(tx *stm.Tx, k int64, v V) bool {
	root, added := ins(t.root.Get(tx), k, v)
	t.root.Set(tx, blacken(root))
	if added {
		t.size.Set(tx, t.size.Get(tx)+1)
	}
	return added
}

// Delete removes k, returning whether it was present.
func (t *RBTree[V]) Delete(tx *stm.Tx, k int64) bool {
	root, removed := del(t.root.Get(tx), k)
	if !removed {
		return false
	}
	t.root.Set(tx, blacken(root))
	t.size.Set(tx, t.size.Get(tx)-1)
	return true
}

// Len returns the number of keys.
func (t *RBTree[V]) Len(tx *stm.Tx) int { return t.size.Get(tx) }

// Keys returns all keys in order.
func (t *RBTree[V]) Keys(tx *stm.Tx) []int64 {
	var out []int64
	var walk func(n *rbNode[V])
	walk = func(n *rbNode[V]) {
		if n == nil {
			return
		}
		walk(n.left)
		out = append(out, n.key)
		walk(n.right)
	}
	walk(t.root.Get(tx))
	return out
}

// Validate checks the red-black invariants (root black, no red-red edges,
// uniform black height, BST order) on the committed tree. For tests.
func (t *RBTree[V]) Validate() error {
	root := t.root.Load()
	if isRed(root) {
		return fmt.Errorf("ds: root is red")
	}
	_, err := checkRB(root, -1<<63, 1<<63-1)
	return err
}

func checkRB[V any](n *rbNode[V], lo, hi int64) (blackHeight int, err error) {
	if n == nil {
		return 1, nil
	}
	if n.key < lo || n.key > hi {
		return 0, fmt.Errorf("ds: BST order violated at %d", n.key)
	}
	if n.red && (isRed(n.left) || isRed(n.right)) {
		return 0, fmt.Errorf("ds: red-red edge at %d", n.key)
	}
	lh, err := checkRB(n.left, lo, n.key-1)
	if err != nil {
		return 0, err
	}
	rh, err := checkRB(n.right, n.key+1, hi)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, fmt.Errorf("ds: black height mismatch at %d (%d vs %d)", n.key, lh, rh)
	}
	if !n.red {
		lh++
	}
	return lh, nil
}
