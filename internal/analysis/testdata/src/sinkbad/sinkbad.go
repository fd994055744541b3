// Package sinkbad is the sinkerr golden fixture. The test mounts it at
// a pseudo path under internal/wal, so the (*os.File).Sync/Close rules
// apply in addition to the module-wide WAL/sstable/physical-callee
// rule.
package sinkbad

import (
	"os"

	"vstore/internal/physical"
	"vstore/internal/sstable"
)

func bad(f *os.File, b physical.Backend, t *sstable.Table) {
	f.Sync()                                // want "error from (*os.File).Sync discarded"
	defer f.Close()                         // want "deferred error from (*os.File).Close discarded"
	sstable.WriteTo(b, "0000000002.sst", t) // want "error from sstable.WriteTo discarded"
}

func badBackend(b physical.Backend, pf physical.File, t *sstable.Table) {
	b.Remove("old.sst")                     // want "error from physical.Remove discarded"
	b.WriteFileAtomic("MANIFEST", nil)      // want "error from physical.WriteFileAtomic discarded"
	pf.Sync()                               // want "error from physical.Sync discarded"
	defer pf.Close()                        // want "deferred error from physical.Close discarded"
	sstable.WriteTo(b, "0000000001.sst", t) // want "error from sstable.WriteTo discarded"
}

func good(f *os.File, b physical.Backend, t *sstable.Table) error {
	_ = f.Sync() // ok: explicit, greppable discard
	if err := sstable.WriteTo(b, "0000000002.sst", t); err != nil {
		return err
	}
	return f.Close()
}

func goodBackend(b physical.Backend, pf physical.File) error {
	_ = b.Remove("old.sst") // ok: explicit, greppable discard
	if err := pf.Sync(); err != nil {
		return err
	}
	return pf.Close()
}
