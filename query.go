package oblivjoin

import (
	"oblivjoin/internal/core"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/table"
)

// This file exposes the keyed join, whose output feeds another join —
// the multi-way composition of the paper's §7. The other relational
// operators (selection, grouping, duplicate elimination, semijoin) run
// through the SQL engine (see Engine).

// KeyedPair is one output row of JoinKeyed: the shared join key and the
// two data payloads.
type KeyedPair struct {
	Key   uint64
	Left  string
	Right string
}

// JoinKeyed is Join but keeps the join key in each output row, so the
// result can be fed directly into another join — the composition that
// makes multi-way joins (the paper's §7) practical.
func JoinKeyed(left, right *Table, opts *Options) ([]KeyedPair, error) {
	if opts == nil {
		opts = &Options{}
	}
	if opts.Algorithm != AlgorithmOblivious {
		return nil, ErrKeyedUnsupported
	}
	sp := memory.NewSpace(nil, nil)
	cfg := &core.Config{
		Alloc:         table.PlainAlloc(sp),
		Probabilistic: opts.Probabilistic,
		Seed:          opts.Seed,
	}
	if opts.MergeExchange {
		cfg.Net = core.MergeExchange
	}
	pairs := core.JoinKeyed(cfg, left.rows, right.rows)
	out := make([]KeyedPair, len(pairs))
	for i, p := range pairs {
		out[i] = KeyedPair{Key: p.J, Left: table.DataString(p.D1), Right: table.DataString(p.D2)}
	}
	return out, nil
}

// ToTable converts keyed join output back into a Table, carrying the
// concatenated payloads (separated by sep) under the original key. It
// returns ErrDataTooLong if a combined payload exceeds MaxDataLen.
func ToTable(pairs []KeyedPair, sep string) (*Table, error) {
	t := NewTable()
	for _, p := range pairs {
		if err := t.Append(p.Key, p.Left+sep+p.Right); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ErrKeyedUnsupported is returned by JoinKeyed for baseline algorithms;
// only the oblivious join carries keys through.
var ErrKeyedUnsupported = errInvalid("oblivjoin: JoinKeyed supports only AlgorithmOblivious")

type errInvalid string

func (e errInvalid) Error() string { return string(e) }
