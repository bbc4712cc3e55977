package server

import (
	"pequod/internal/backdb"
	"pequod/internal/core"
	"pequod/internal/shard"
)

// AttachDB configures the server as a write-around cache over db (§2):
// the listed tables load on demand from the database, and the database
// pushes updates for loaded ranges back into the cache, keeping base data
// fresh without any application cache-maintenance code. The engine
// loads and subscribes to the ranges it needs (client reads, plus any
// source ranges its joins scan).
func (s *Server) AttachDB(db *backdb.DB, tables ...string) {
	sh := s.pool.Shard(0)
	sh.SetLoader(&dbLoader{sh: sh, db: db}, tables...)
}

type dbLoader struct {
	sh *shard.Shard
	db *backdb.DB
}

// StartLoads implements core.BaseLoader over the database: for each
// range, snapshot + subscription are installed atomically, and both the
// snapshot and all later updates arrive through the database dispatcher
// in write order, so the cache never applies an old value over a newer
// one.
func (l *dbLoader) StartLoads(loads []core.Load) {
	sh := l.sh
	for _, ld := range loads {
		ld := ld
		l.db.ScanAndSubscribe(ld.R.Lo, ld.R.Hi,
			func(kvs []core.KV) {
				sh.LoadsDone(kvs, []core.Load{ld}, nil)
			},
			func(u backdb.Update) {
				op := core.OpPut
				if u.Op == backdb.OpDelete {
					op = core.OpRemove
				}
				sh.ApplyBatch([]core.Change{{Op: op, Key: u.Key, Value: u.Value}})
			})
	}
}
