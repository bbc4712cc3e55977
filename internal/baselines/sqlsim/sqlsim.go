// Package sqlsim is the PostgreSQL 9.1 stand-in of the Figure 7
// comparison (§5.2): a minimal in-memory relational engine whose insert
// triggers maintain a timeline table, approximating the paper's
// "PostgreSQL ... we use triggers to get a similar effect" to
// automatically-updated materialized views.
//
// The engine deliberately pays the costs a real in-memory relational
// database pays even with relaxed durability (the paper disabled fsync,
// synchronous commit, and full-page writes):
//
//   - heap tuples with transaction visibility headers (xmin/xmax) and a
//     visibility check per row read (MVCC bookkeeping),
//   - a WAL record encoded per modification (buffered in memory,
//     recycled — matching the paper's tuned, non-durable configuration),
//   - composite-key B-tree index maintenance per insert,
//   - full row copies across the statement boundary.
//
// Those per-row constants — not disk — are what put the paper's
// PostgreSQL nearly an order of magnitude behind the caches, and the
// simulator preserves that cost structure.
package sqlsim

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"pequod/internal/btree"
)

// Row is a tuple of column values (ints as decimal strings).
type Row []string

// Column describes one column.
type Column struct {
	Name string
}

// Schema declares a table: columns and the primary-key column indexes.
type Schema struct {
	Name string
	Cols []Column
	Key  []int
}

// tuple is a heap tuple with MVCC visibility headers.
type tuple struct {
	xmin, xmax uint64
	vals       Row
}

// Table is one relation with its primary B-tree index.
type Table struct {
	schema Schema
	index  btree.Tree[*tuple]
}

// Trigger runs after an insert into its table, inside the same
// transaction (the paper's trigger-maintained timeline).
type Trigger func(db *DB, row Row)

// DB is the database.
type DB struct {
	mu       sync.Mutex
	tables   map[string]*Table
	triggers map[string][]Trigger
	xid      uint64
	wal      []byte

	// Stats for the evaluation write-up.
	Inserts, Deletes, Selects, TriggerRuns, WALBytes int64
}

// New returns an empty database.
func New() *DB {
	return &DB{
		tables:   make(map[string]*Table),
		triggers: make(map[string][]Trigger),
	}
}

// CreateTable registers a relation.
func (db *DB) CreateTable(s Schema) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables[s.Name] = &Table{schema: s}
}

// OnInsert installs an insert trigger.
func (db *DB) OnInsert(table string, tr Trigger) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.triggers[table] = append(db.triggers[table], tr)
}

// EncodeKey joins primary-key components into an index key.
func EncodeKey(parts ...string) string {
	return strings.Join(parts, "|")
}

// keyOf extracts a row's index key.
func (t *Table) keyOf(row Row) string {
	parts := make([]string, len(t.schema.Key))
	for i, ci := range t.schema.Key {
		parts[i] = row[ci]
	}
	return EncodeKey(parts...)
}

// walRecord appends an encoded modification record, recycling the buffer
// at 4 MiB to model a ring of WAL segments.
func (db *DB) walRecord(op byte, table string, row Row) {
	if len(db.wal) > 4<<20 {
		db.wal = db.wal[:0]
	}
	db.wal = append(db.wal, op)
	db.wal = binary.AppendUvarint(db.wal, db.xid)
	db.wal = binary.AppendUvarint(db.wal, uint64(len(table)))
	db.wal = append(db.wal, table...)
	for _, v := range row {
		db.wal = binary.AppendUvarint(db.wal, uint64(len(v)))
		db.wal = append(db.wal, v...)
	}
	db.WALBytes = int64(len(db.wal))
}

// Insert adds (or replaces) a row and fires insert triggers in the same
// transaction. Public entry point; takes the database lock.
func (db *DB) Insert(table string, row Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.insertLocked(table, row, true)
}

// insertLocked is shared by statements and triggers.
func (db *DB) insertLocked(table string, row Row, stmt bool) error {
	t := db.tables[table]
	if t == nil {
		return fmt.Errorf("sqlsim: no table %q", table)
	}
	if len(row) != len(t.schema.Cols) {
		return fmt.Errorf("sqlsim: %s wants %d columns", table, len(t.schema.Cols))
	}
	if stmt {
		db.xid++ // one transaction per statement (autocommit)
	}
	db.Inserts++
	// Heap tuple with copied values.
	vals := make(Row, len(row))
	copy(vals, row)
	tp := &tuple{xmin: db.xid, vals: vals}
	key := t.keyOf(vals)
	if old, existed := t.index.Set(key, tp, nil); existed {
		old.xmax = db.xid // dead version; replaced in place
	}
	db.walRecord('I', table, vals)
	for _, tr := range db.triggers[table] {
		db.TriggerRuns++
		tr(db, vals)
	}
	return nil
}

// InsertFromTrigger inserts without re-locking (for use inside triggers).
func (db *DB) InsertFromTrigger(table string, row Row) error {
	return db.insertLocked(table, row, false)
}

// Delete removes a row by primary key.
func (db *DB) Delete(table string, keyParts ...string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.tables[table]
	if t == nil {
		return false
	}
	db.xid++
	db.Deletes++
	tp, ok := t.index.Delete(EncodeKey(keyParts...))
	if !ok {
		return false
	}
	tp.xmax = db.xid
	db.walRecord('D', table, tp.vals)
	return true
}

// SelectRange returns visible rows whose index key lies in [lo, hi)
// (hi == "" unbounded), in key order, copied out of the heap.
func (db *DB) SelectRange(table, lo, hi string) ([]Row, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.selectRangeLocked(table, lo, hi)
}

func (db *DB) selectRangeLocked(table, lo, hi string) ([]Row, error) {
	t := db.tables[table]
	if t == nil {
		return nil, fmt.Errorf("sqlsim: no table %q", table)
	}
	db.Selects++
	snapshot := db.xid
	var out []Row
	t.index.Ascend(lo, hi, func(_ string, tp *tuple) bool {
		// Visibility: committed before our snapshot and not deleted.
		if tp.xmin <= snapshot && (tp.xmax == 0 || tp.xmax > snapshot) {
			row := make(Row, len(tp.vals))
			copy(row, tp.vals)
			out = append(out, row)
		}
		return true
	})
	return out, nil
}

// SelectPrefix returns visible rows whose key starts with the given
// components (an equality scan on a key prefix).
func (db *DB) SelectPrefix(table string, parts ...string) ([]Row, error) {
	lo := EncodeKey(parts...) + "|"
	hi := prefixEnd(lo)
	rows, err := db.SelectRange(table, lo, hi)
	if err != nil {
		return nil, err
	}
	// A full-key match (no further components) also qualifies.
	if exact, err2 := db.SelectRange(table, EncodeKey(parts...), EncodeKey(parts...)+"\x00"); err2 == nil {
		rows = append(exact, rows...)
	}
	return rows, nil
}

func prefixEnd(p string) string {
	b := []byte(p)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xff {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}

// Count returns the number of visible rows in the key range.
func (db *DB) Count(table, lo, hi string) (int, error) {
	rows, err := db.SelectRange(table, lo, hi)
	return len(rows), err
}
