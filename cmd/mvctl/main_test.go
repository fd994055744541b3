package main

import (
	"bytes"
	"io"
	"regexp"
	"strings"
	"testing"

	"vstore"
	"vstore/internal/wire"
)

// TestShellTargetsAgree runs one script through the embedded target and
// through -addr against a wire server over a second embedded cluster:
// every command both serve must print the same, timestamps aside.
func TestShellTargetsAgree(t *testing.T) {
	emb, err := open("", 4, 3, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer emb.close()
	db, err := vstore.Open(vstore.Config{Nodes: 4, ReplicationFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := wire.NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := open(addr.String(), 0, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.close()

	timestamps := regexp.MustCompile(`@\d+`)
	run := func(sh *shell, line string) string {
		var out bytes.Buffer
		sh.out = &out
		if err := sh.execute(line); err != nil {
			out.WriteString("error: " + err.Error() + "\n")
		}
		return timestamps.ReplaceAllString(out.String(), "@T")
	}
	script := []struct{ line, want string }{
		{"create table ticket", ""},
		{"create view byowner on ticket key owner materialize status", ""},
		{"create index ticket status", ""},
		{"put ticket 1 owner=ann status=open", ""},
		{"put ticket 2 owner=ann status=done", ""},
		{"put ticket 1 owner=bob", ""},
		{"quiesce", ""},
		{"get ticket 1", "owner=bob@T status=open@T\n"},
		{"get ticket 2 status", "status=done@T\n"},
		{"getview byowner ann", "base=2 status=done@T\n"},
		{"getview byowner bob", "base=1 status=open@T\n"},
		{"queryindex ticket status open owner", "key=1 owner=bob@T\n"},
		{"prune byowner 0", "pruned 3 stale rows\n"},
		{"rebuild byowner", ""},
		{"getview byowner bob", "base=1 status=open@T\n"},
		{"create view v on ticket key", "error: usage: create view NAME on BASE key COL [prefix=P] [min=A] [max=Z] [materialize COL ...]\n"},
		{"create view v on", "error: usage: create view NAME on BASE key COL [prefix=P] [min=A] [max=Z] [materialize COL ...]\n"},
		{"create view v on ticket prefix=a key", "error: usage: create view NAME on BASE key COL [prefix=P] [min=A] [max=Z] [materialize COL ...]\n"},
		{"create view v on ticket key owner bogus", "error: usage: create view NAME on BASE key COL [prefix=P] [min=A] [max=Z] [materialize COL ...]\n"},
		{"getview byowner", "error: usage: getview VIEW VIEWKEY\n"},
		{"frobnicate", "error: unknown command \"frobnicate\" (try 'help')\n"},
	}
	for _, step := range script {
		got, gotRemote := run(emb, step.line), run(remote, step.line)
		if got != step.want {
			t.Errorf("embedded %q printed %q, want %q", step.line, got, step.want)
		}
		if gotRemote != got {
			t.Errorf("%q printed %q over -addr, %q embedded", step.line, gotRemote, got)
		}
	}

	for _, line := range []string{"tables", "views", "traces", "antientropy", "nodedown 1", "nodeup 1", "drop view byowner", "wait view byowner"} {
		if err := remote.execute(line); err == nil || !strings.Contains(err.Error(), "embedded") {
			t.Errorf("%q over -addr: err %v, want an embedded-only error", line, err)
		}
	}
	for _, line := range []string{"session begin", "session end"} {
		if err := emb.execute(line); err == nil || !strings.Contains(err.Error(), "-addr") {
			t.Errorf("%q embedded: err %v, want a -addr-only error", line, err)
		}
		if err := remote.execute(line); err != nil {
			t.Errorf("%q over -addr: %v", line, err)
		}
	}
	if out := run(emb, "tables"); !strings.Contains(out, "ticket") {
		t.Errorf("tables printed %q", out)
	}
}
