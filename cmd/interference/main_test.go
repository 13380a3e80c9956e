package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"specinterference/internal/cmdtest"
	"specinterference/internal/results"
)

func TestMain(m *testing.M) { cmdtest.Main(m) }

func TestSmoke(t *testing.T) {
	out := cmdtest.Run(t, "", "-trials", "2", "-jitter", "5")
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "separation") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestSmokeSubprocess: the subprocess backend re-execs this binary in
// shard-worker mode and must reproduce the in-process output exactly.
func TestSmokeSubprocess(t *testing.T) {
	want := cmdtest.Run(t, "", "-trials", "2", "-jitter", "5")
	got := cmdtest.Run(t, "", "-trials", "2", "-jitter", "5", "-backend", "subprocess", "-procs", "2")
	if got != want {
		t.Errorf("subprocess output diverged from in-process:\n--- inprocess\n%s\n--- subprocess\n%s", want, got)
	}
}

// TestSubprocessSummary: a subprocess run at the baseline params prints
// the committed record on stdout and ends its stderr with the backend's
// run summary, which counts every shard and at least one accepted line
// per shard, and which the remote summary's parsers (cmd/specbench reads
// "remote: run complete: ") do not mistake for their own.
func TestSubprocessSummary(t *testing.T) {
	stdout, stderr := cmdtest.RunCapture(t, "", "-trials", "8", "-jitter", "10", "-seed", "1", "-json", "-backend", "subprocess", "-procs", "2")
	cmdtest.MatchBaseline(t, stdout, results.ExpFigure7)
	var shards, issued, won, wasted, lines int
	i := strings.LastIndex(stderr, "subprocess: run complete: ")
	if i < 0 {
		t.Fatalf("stderr lacks the run summary:\n%s", stderr)
	}
	summary, _, _ := strings.Cut(stderr[i:], "\n")
	if n, err := fmt.Sscanf(summary, "subprocess: run complete: %d shards; backups: %d issued, %d won, %d wasted; results: %d lines",
		&shards, &issued, &won, &wasted, &lines); n != 5 || err != nil {
		t.Fatalf("summary %q does not parse: %v", summary, err)
	}
	if shards != 16 || lines < shards {
		t.Errorf("summary %q: want 16 shards and at least 16 lines", summary)
	}
	if strings.Contains(stderr, "remote: run complete: ") {
		t.Errorf("stderr holds the remote summary's marker:\n%s", stderr)
	}
}

// TestSmokeRemote: the remote backend runs an HTTP coordinator on a
// loopback ephemeral port with re-exec'd -remote-worker processes and
// must reproduce the in-process output exactly.
func TestSmokeRemote(t *testing.T) {
	want := cmdtest.Run(t, "", "-trials", "2", "-jitter", "5")
	got := cmdtest.Run(t, "", "-trials", "2", "-jitter", "5", "-backend", "remote", "-procs", "2")
	if got != want {
		t.Errorf("remote output diverged from in-process:\n--- inprocess\n%s\n--- remote\n%s", want, got)
	}
}

// TestUnreadBackendFlags: a backend flag the chosen backend does not
// read exits non-zero naming the flag and the backends that read it, a
// subprocess run given -journal writes no journal, and -chunk and -lease
// are not flags at all.
func TestUnreadBackendFlags(t *testing.T) {
	journal := t.TempDir()
	for _, tc := range []struct {
		args   []string
		unread []string
	}{
		{[]string{"-backend", "subprocess", "-procs", "2", "-journal", journal, "-listen", "1.2.3.4:99"},
			[]string{"-journal (read by remote)", "-listen (read by remote)"}},
		{[]string{"-backend", "inprocess", "-procs", "7", "-journal", journal},
			[]string{"-procs (read by subprocess and remote)", "-journal (read by remote)"}},
		{[]string{"-backend", "subprocess", "-parallel", "2"}, []string{"-parallel (read by inprocess)"}},
		{[]string{"-backend", "remote", "-parallel", "2"}, []string{"-parallel (read by inprocess)"}},
		{[]string{"-backend", "remote", "-procs", "2", "-chunk", "1"}, []string{"flag provided but not defined: -chunk"}},
		{[]string{"-backend", "remote", "-procs", "2", "-lease", "1s"}, []string{"flag provided but not defined: -lease"}},
	} {
		out := cmdtest.RunFail(t, "", append([]string{"-trials", "3", "-jitter", "5"}, tc.args...)...)
		for _, unread := range tc.unread {
			if !strings.Contains(out, unread) {
				t.Errorf("%v: error does not name %s:\n%s", tc.args, unread, out)
			}
		}
	}
	if entries, err := os.ReadDir(journal); err != nil || len(entries) != 0 {
		t.Errorf("journal directory holds %d entries (%v), want none", len(entries), err)
	}
}

// TestProgressFlag: -progress reports shard completion on stderr and
// leaves stdout byte-identical.
func TestProgressFlag(t *testing.T) {
	want := cmdtest.Run(t, "", "-trials", "2", "-jitter", "5")
	stdout, stderr := cmdtest.RunCapture(t, "", "-trials", "2", "-jitter", "5", "-progress")
	if stdout != want {
		t.Errorf("-progress changed stdout:\n--- without\n%s\n--- with\n%s", want, stdout)
	}
	if !strings.Contains(stderr, "4/4 shards") {
		t.Errorf("-progress stderr lacks the completion line:\n%s", stderr)
	}
}

// TestSmokeJSON: at the baseline params -json prints a record identical
// to the committed Figure 7 baseline record.
func TestSmokeJSON(t *testing.T) {
	out := cmdtest.Run(t, "", "-trials", "8", "-jitter", "10", "-seed", "1", "-json")
	cmdtest.MatchBaseline(t, out, results.ExpFigure7)
}

// TestNegativeValues: a negative -jitter, or a negative backend count,
// exits non-zero naming the flag and its value instead of running as if
// it were zero.
func TestNegativeValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-jitter", "-5"}, "jitter must be >= 0, got -5"},
		{[]string{"-parallel", "-1"}, "-parallel -1"},
		{[]string{"-backend", "subprocess", "-procs", "-1"}, "-procs -1"},
	} {
		out := cmdtest.RunFail(t, "", append([]string{"-trials", "2"}, tc.args...)...)
		if !strings.Contains(out, tc.want) {
			t.Errorf("%v: error does not name %q:\n%s", tc.args, tc.want, out)
		}
	}
}
