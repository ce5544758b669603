package firewall

import (
	"fmt"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/netbricks"
)

// Stateful adapts a rule database into the domain runtime's checkpointed
// recovery contract. The live DB sits behind an atomic pointer so a
// restore's swap is visible to a pipeline already rebuilt by the user
// Recover hook (state recovery runs after plumbing recovery); a boot-time
// snapshot backs Reset, since a firewall's cold start is its configured
// rules, not an empty trie.
type Stateful struct {
	checkpoint.Codec[*DB] // durable tokens (domain.TokenCodec)

	db   atomic.Pointer[DB]
	boot *checkpoint.Snapshot
}

// NewStateful wraps db, snapshotting it once as the cold-start image.
func NewStateful(db *DB) (*Stateful, error) {
	boot, err := db.Checkpoint(checkpoint.NewEngine(checkpoint.RcAware))
	if err != nil {
		return nil, fmt.Errorf("firewall: boot snapshot: %w", err)
	}
	s := &Stateful{boot: boot}
	s.db.Store(db)
	return s, nil
}

// DB returns the live database.
func (s *Stateful) DB() *DB { return s.db.Load() }

// Checkpoint implements the Stateful contract: snapshot the live DB. The
// DB is updated by pointer swap only (rule installation builds a new
// trie), so the traversal races no mutator.
func (s *Stateful) Checkpoint(e *checkpoint.Engine) (any, error) {
	return s.db.Load().Checkpoint(e)
}

// Restore swaps in a fresh materialization of a Checkpoint token.
func (s *Stateful) Restore(token any) error {
	snap, ok := token.(*checkpoint.Snapshot)
	if !ok {
		return fmt.Errorf("firewall: restore token is %T, want *checkpoint.Snapshot", token)
	}
	db, err := RestoreDB(snap)
	if err != nil {
		return err
	}
	s.db.Store(db)
	return nil
}

// Reset swaps in a fresh materialization of the boot-time rules.
func (s *Stateful) Reset() {
	db, err := RestoreDB(s.boot)
	if err != nil {
		// The boot snapshot restored cleanly at least once (NewStateful
		// checkpointed a live DB); a failure here means memory corruption
		// the runtime cannot recover from.
		panic(fmt.Sprintf("firewall: reset from boot snapshot: %v", err))
	}
	s.db.Store(db)
}

// StatefulOperator is Operator reading the database through a Stateful
// adapter on every batch, so restores and resets take effect without
// rebuilding the pipeline.
type StatefulOperator struct {
	S *Stateful
}

// Name implements netbricks.Operator.
func (StatefulOperator) Name() string { return "firewall" }

// ProcessBatch implements netbricks.Operator.
func (o StatefulOperator) ProcessBatch(b *netbricks.Batch) error {
	return Operator{DB: o.S.DB()}.ProcessBatch(b)
}

var _ netbricks.Operator = StatefulOperator{}
