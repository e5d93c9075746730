package rpc

import (
	"container/list"
	"sync"
)

// LRU is a small mutex-guarded least-recently-used cache. A capacity of
// zero or less disables it: every Get misses and every Put is dropped.
type LRU[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent; values are *lruEntry[K, V]
	m   map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU returns an empty cache holding at most capacity entries.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{cap: capacity, ll: list.New(), m: make(map[K]*list.Element)}
}

// Get returns the value cached under key and marks it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put caches val under key (replacing any previous value), evicting the
// least recently used entry once the cache is over capacity.
func (c *LRU[K, V]) Put(key K, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// Len reports the number of cached entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
