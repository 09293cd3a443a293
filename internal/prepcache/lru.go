package prepcache

// lru is a byte-accounted least-recently-used map: every entry carries the
// bytes it is charged, and inserting past the cap evicts from the least
// recently used end until the total fits again. The newest entry is never
// evicted by its own insertion, so one oversized entry still serves until
// the next insert displaces it. Not safe for concurrent use: the owner
// holds its own lock around every call.
type lru[K comparable, V any] struct {
	cap   int64
	bytes int64
	m     map[K]*lruNode[K, V]
	// head is the most recently used entry, tail the least.
	head, tail *lruNode[K, V]
	evictions  int64
	// onEvict, when set, sees every entry the cap evicts.
	onEvict func(K, V)
}

type lruNode[K comparable, V any] struct {
	key        K
	val        V
	bytes      int64
	prev, next *lruNode[K, V]
}

func newLRU[K comparable, V any](capBytes int64) *lru[K, V] {
	return &lru[K, V]{cap: capBytes, m: map[K]*lruNode[K, V]{}}
}

// get returns the entry for k and marks it most recently used.
func (l *lru[K, V]) get(k K) (V, bool) {
	n, ok := l.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.moveToFront(n)
	return n.val, true
}

// add inserts v under k charged n bytes, unless k is already resident; it
// returns the resident value and whether this call inserted it.
func (l *lru[K, V]) add(k K, v V, n int64) (V, bool) {
	if old, ok := l.m[k]; ok {
		l.moveToFront(old)
		return old.val, false
	}
	node := &lruNode[K, V]{key: k, val: v, bytes: n}
	l.m[k] = node
	l.pushFront(node)
	l.bytes += n
	l.trim()
	return v, true
}

// set stores v under k charged n bytes, replacing any resident value.
func (l *lru[K, V]) set(k K, v V, n int64) {
	if old, ok := l.m[k]; ok {
		l.bytes += n - old.bytes
		old.val, old.bytes = v, n
		l.moveToFront(old)
		l.trim()
		return
	}
	l.add(k, v, n)
}

// trim evicts least recently used entries until the total fits the cap,
// sparing the most recent one.
func (l *lru[K, V]) trim() {
	for l.bytes > l.cap && l.tail != nil && l.tail != l.head {
		n := l.tail
		l.unlink(n)
		delete(l.m, n.key)
		l.bytes -= n.bytes
		l.evictions++
		if l.onEvict != nil {
			l.onEvict(n.key, n.val)
		}
	}
}

// clear drops every entry; the eviction count is kept.
func (l *lru[K, V]) clear() {
	clear(l.m)
	l.head, l.tail, l.bytes = nil, nil, 0
}

func (l *lru[K, V]) pushFront(n *lruNode[K, V]) {
	n.prev, n.next = nil, l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *lru[K, V]) unlink(n *lruNode[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *lru[K, V]) moveToFront(n *lruNode[K, V]) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}
