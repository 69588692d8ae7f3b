package txlock

import "deferstm/internal/stm"

// Watchers reports how many retry waiters are registered on the lock's
// variable (watcher-leak checks in the external tests).
func (l *Lock) Watchers() int { return l.st.Watchers() }

// Peek returns the owner and depth inside tx from ONE read of the lock's
// variable, so a caller that releases nothing in between cannot be shown
// halves of two states.
func (l *Lock) Peek(tx *stm.Tx) (stm.OwnerID, int) {
	s := l.st.GetPtr(tx)
	return s.ownerOrZero(), s.depthOrZero()
}
