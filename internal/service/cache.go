package service

import (
	"container/list"

	"oblivjoin/internal/query"
	"oblivjoin/internal/query/exec"
)

// planEntry is one cached prepared plan: the logical tree (for
// EXPLAIN), the lowered, immutable operator pipeline, the catalog
// tables the plan references (what an execution snapshots), and the
// plan's modeled cost report.
type planEntry struct {
	plan     query.PlanNode
	pipeline []exec.Operator
	tables   []string
	asOf     int64 // AS OF catalog version; -1 = current
	model    *query.PlanCostReport
}

// lru is a plain doubly-linked-list LRU keyed by the plan-cache key.
// It is not itself locked; Service serializes access under its mutex.
type lru struct {
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type lruItem struct {
	key string
	ent *planEntry
}

func newLRU(capacity int) *lru {
	if capacity < 1 {
		capacity = 1
	}
	return &lru{cap: capacity, ll: list.New(), m: map[string]*list.Element{}}
}

func (c *lru) len() int { return c.ll.Len() }

// get returns the entry under key, marking it most recently used.
func (c *lru) get(key string) (*planEntry, bool) {
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem).ent, true
}

// put inserts (or refreshes) key and returns how many entries were
// evicted to stay within capacity (0 or 1).
func (c *lru) put(key string, ent *planEntry) int {
	if el, ok := c.m[key]; ok {
		el.Value.(*lruItem).ent = ent
		c.ll.MoveToFront(el)
		return 0
	}
	c.m[key] = c.ll.PushFront(&lruItem{key: key, ent: ent})
	if c.ll.Len() <= c.cap {
		return 0
	}
	oldest := c.ll.Back()
	c.ll.Remove(oldest)
	delete(c.m, oldest.Value.(*lruItem).key)
	return 1
}
