package main

import (
	"context"

	"pequod"
	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/shard"
)

// target is what the op executor drives: the one surface every rung of
// the ladder offers, from a bare engine up to the cluster client. buf
// is scan scratch the callee may reuse.
type target interface {
	Put(key, value string) error
	PutBatch(kvs []core.KV) error
	Scan(lo, hi string, buf []core.KV) ([]core.KV, error)
	Quiesce() error
}

// storeTarget adapts the public Store API (embedded Cache, Cluster).
type storeTarget struct {
	ctx context.Context
	s   pequod.Store
}

func (t storeTarget) Put(k, v string) error        { return t.s.Put(t.ctx, k, v) }
func (t storeTarget) PutBatch(kvs []core.KV) error { return t.s.PutBatch(t.ctx, kvs) }
func (t storeTarget) Quiesce() error               { return t.s.Quiesce(t.ctx) }
func (t storeTarget) Scan(lo, hi string, _ []core.KV) ([]core.KV, error) {
	return t.s.Scan(t.ctx, lo, hi, 0)
}

// engineTarget is the core rung: one engine, no lock, no routing.
type engineTarget struct{ e *core.Engine }

func (t engineTarget) Put(k, v string) error { t.e.Put(k, v); return nil }
func (t engineTarget) Quiesce() error        { return nil }
func (t engineTarget) PutBatch(kvs []core.KV) error {
	for _, kv := range kvs {
		t.e.Put(kv.Key, kv.Value)
	}
	return nil
}
func (t engineTarget) Scan(lo, hi string, buf []core.KV) ([]core.KV, error) {
	kvs, _ := t.e.ScanInto(lo, hi, 0, buf)
	return kvs, nil
}

// poolTarget is the shard rung: routing, per-shard mutex, forwarding.
type poolTarget struct{ p *shard.Pool }

func (t poolTarget) Put(k, v string) error { t.p.Put(k, v); return nil }
func (t poolTarget) Quiesce() error        { t.p.Quiesce(); return nil }
func (t poolTarget) PutBatch(kvs []core.KV) error {
	for _, kv := range kvs {
		t.p.Put(kv.Key, kv.Value)
	}
	return nil
}
func (t poolTarget) Scan(lo, hi string, buf []core.KV) ([]core.KV, error) {
	return t.p.Scan(lo, hi, 0, buf, nil), nil
}

// clientTarget is the server rung: one connection to one server that
// holds every table.
type clientTarget struct {
	ctx context.Context
	c   *client.Client
}

func (t clientTarget) Put(k, v string) error { return t.c.Put(k, v) }
func (t clientTarget) Quiesce() error        { return t.c.Quiesce(t.ctx) }
func (t clientTarget) PutBatch(kvs []core.KV) error {
	futs := make([]*client.Future, len(kvs))
	for i, kv := range kvs {
		futs[i] = t.c.PutAsync(kv.Key, kv.Value)
	}
	return client.WaitAll(t.ctx, futs)
}
func (t clientTarget) Scan(lo, hi string, _ []core.KV) ([]core.KV, error) {
	return t.c.Scan(lo, hi, 0)
}
