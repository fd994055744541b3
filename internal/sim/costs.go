package sim

// The cost table: the protocol's work in one run, charged to the client
// operation that caused it. Every process and event runs on a cost
// account. A client opens one per operation; the processes it spawns —
// the propagations its Put schedules, their retries and hand-offs, the
// read repairs those start — and the events they schedule inherit it, so
// an operation's account ends up holding every replica request made on
// its behalf. What no operation caused (anti-entropy, hint replay) is
// charged to the background account. The counts are a deterministic
// function of the code and the seed, unlike the wall-clock benchmark.

import (
	"fmt"
	"slices"
	"strings"

	"vstore/internal/model"
	"vstore/internal/transport"
)

// reqKinds are the table's columns: replica requests by reqKind's names,
// the last column every other kind (anti-entropy's, mostly).
var reqKinds = [...]string{"put+preread", "put", "get", "getdigest", "multiget", "other"}

// Operation classes. A client write is classed when it is acknowledged,
// against the view-key writes of its row acknowledged before it.
const (
	classFirst      = "vk first"     // the row's first view-key value
	classSupersede  = "vk supersede" // a view-key value newer than the row's
	classStale      = "vk stale"     // a view-key value older than the row's
	classDelete     = "vk delete"    // a view-key deletion
	classMat        = "mat"          // a materialized-column write
	classUnacked    = "unacked"      // never acknowledged (the run fails)
	classReplay     = "replay"       // one recovered intent re-enqueued
	classBackfill   = "backfill"     // every scan and fill of the run
	classBackground = "background"   // anti-entropy, hint replay, the rest
)

// classOrder is the table's row order. The first ones are per operation;
// the last two are totals of a shared account.
var classOrder = []string{classFirst, classSupersede, classStale, classDelete, classMat, classUnacked, classReplay, classBackfill, classBackground}

// account is one cost owner.
type account struct {
	class string
	reqs  [len(reqKinds)]int
	// acks are the replicas that acknowledged the account's base-table
	// puts, each with its request, in the order the replies arrived: what
	// put checks every acknowledging replica against.
	acks []putAck
	// late, set once the account's write is acknowledged, checks each
	// ack that arrives after that, as it arrives.
	late func(putAck)
}

// putAck is one successful reply to a base-table put.
type putAck struct {
	from transport.NodeID
	req  transport.PutReq
}

func (a *account) charge(kind string) {
	i := slices.Index(reqKinds[:len(reqKinds)-1], kind)
	if i < 0 {
		i = len(reqKinds) - 1
	}
	a.reqs[i]++
}

func (a *account) total() (n int) {
	for _, v := range a.reqs {
		n += v
	}
	return n
}

// account returns the cost account of whatever runs now: the running
// process's, a plain event's, else the background one.
func (s *Scheduler) account() *account {
	a := s.eventAcct
	if s.running != nil {
		a = s.running.acct
	}
	if a == nil {
		return s.accounts[0]
	}
	return a
}

// openAccount returns a new account of class.
func (s *Scheduler) openAccount(class string) *account {
	a := &account{class: class}
	s.accounts = append(s.accounts, a)
	return a
}

// chargeTo makes a the account of what runs now — the running process,
// or the plain event — and returns the one it replaces.
func (s *Scheduler) chargeTo(a *account) (prev *account) {
	if s.running != nil {
		prev, s.running.acct = s.running.acct, a
	} else {
		prev, s.eventAcct = s.eventAcct, a
	}
	return prev
}

// ClassCost sums the accounts of one operation class.
type ClassCost struct {
	Class string
	Ops   int                // accounts of the class
	Reqs  [len(reqKinds)]int // replica requests, by reqKinds
	// Totals holds each account's request count, ascending.
	Totals []int
}

// classCosts sums the scheduler's accounts by class, in classOrder,
// leaving out the classes no account has.
func (s *Scheduler) classCosts() []ClassCost {
	by := map[string]*ClassCost{}
	for _, a := range s.accounts {
		c := by[a.class]
		if c == nil {
			c = &ClassCost{Class: a.class}
			by[a.class] = c
		}
		c.Ops++
		for i, v := range a.reqs {
			c.Reqs[i] += v
		}
		c.Totals = append(c.Totals, a.total())
	}
	var out []ClassCost
	for _, class := range classOrder {
		if c := by[class]; c != nil {
			slices.Sort(c.Totals)
			out = append(out, *c)
		}
	}
	return out
}

// vkHistory is what the client side knows of one row's view-key writes,
// to class the next one: whether a value was ever acknowledged, and the
// winning acknowledged cell, deletions included.
type vkHistory struct {
	valued bool
	won    model.Cell
}

// classify classes an acknowledged write of row bk and records it.
func (w *world) classify(bk string, u model.ColumnUpdate) string {
	if u.Column != vkCol {
		return classMat
	}
	h := w.vkHistory[bk]
	class := classDelete
	switch {
	case u.Cell.Tombstone:
	case !h.valued:
		class = classFirst
	case u.Cell.Wins(h.won):
		class = classSupersede
	default:
		class = classStale
	}
	h.valued = h.valued || !u.Cell.Tombstone
	h.won = model.Merge(h.won, u.Cell)
	w.vkHistory[bk] = h
	return class
}

// CostTable renders the run's cost table: replica requests per client
// operation by class and kind (mean per operation, then the least,
// median and largest operation), the totals of the shared accounts, and
// the propagation and coordinator counters with their rate per
// propagation, and on a durable run the WAL appends and syncs with
// their rate per acknowledged client write.
func (r *Report) CostTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s %5s", "requests", "ops")
	for _, k := range reqKinds {
		fmt.Fprintf(&b, " %11s", k)
	}
	fmt.Fprintf(&b, " %8s %5s %6s %5s\n", "total", "min", "median", "max")
	// totals prints a shared account's row: request totals, no means.
	totals := func(class string, reqs [len(reqKinds)]int) {
		fmt.Fprintf(&b, "%-13s %5s", class, "-")
		total := 0
		for _, v := range reqs {
			fmt.Fprintf(&b, " %11d", v)
			total += v
		}
		fmt.Fprintf(&b, " %8d\n", total)
	}
	var all [len(reqKinds)]int
	for _, c := range r.Costs {
		for i, v := range c.Reqs {
			all[i] += v
		}
		if c.Class == classBackfill || c.Class == classBackground {
			totals(c.Class, c.Reqs)
			continue
		}
		fmt.Fprintf(&b, "%-13s %5d", c.Class, c.Ops)
		total := 0
		for _, v := range c.Reqs {
			fmt.Fprintf(&b, " %11.2f", float64(v)/float64(c.Ops))
			total += v
		}
		fmt.Fprintf(&b, " %8.2f %5d %6d %5d\n", float64(total)/float64(c.Ops),
			c.Totals[0], c.Totals[len(c.Totals)/2], c.Totals[len(c.Totals)-1])
	}
	totals("all", all)

	props := float64(r.Propagations)
	fmt.Fprintf(&b, "\n%-36s %7s %16s\n", "propagation", "total", "per propagation")
	fmt.Fprintf(&b, "%-36s %7d\n", "propagations (no-ops included)", r.Propagations)
	for _, row := range []struct {
		name string
		n    int
	}{
		{"failed attempts", r.PropagationRetries},
		{"hand-offs", r.HandOffs},
		{"chain hops", r.ChainHops},
		{"ghost detours", r.GhostDetours},
		{"base reads", r.BaseReads},
		{"compressions", r.Compressions},
		{"backpressure waits", r.BackpressureWaits},
		{"late tasks", r.LateTasks},
		{"abandoned", r.Abandoned},
	} {
		fmt.Fprintf(&b, "%-36s %7d %16.3f\n", row.name, row.n, float64(row.n)/props)
	}
	co := r.Coord
	fmt.Fprintf(&b, "\n%-36s %7s\n", "coordinator", "total")
	for _, row := range []struct {
		name string
		n    int64
	}{
		{"digest reads", co.DigestReads},
		{"digest mismatches", co.DigestMismatches},
		{"read repairs", co.ReadRepairs},
		{"hints stored", co.HintsStored},
		{"hints replayed", co.HintsReplayed},
		{"multigets", co.MultiGets},
	} {
		fmt.Fprintf(&b, "%-36s %7d\n", row.name, row.n)
	}
	if r.WALAppends > 0 { // a durable run; a memory run logs nothing
		acked := float64(r.Acked)
		fmt.Fprintf(&b, "\n%-36s %7s %16s\n", "storage", "total", "per acked write")
		fmt.Fprintf(&b, "%-36s %7d %16.3f\n", "wal appends", r.WALAppends, float64(r.WALAppends)/acked)
		fmt.Fprintf(&b, "%-36s %7d %16.3f\n", "wal syncs", r.WALSyncs, float64(r.WALSyncs)/acked)
	}
	return b.String()
}
