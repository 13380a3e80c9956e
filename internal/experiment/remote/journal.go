package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// journalFormat is bumped whenever the journal's line encoding changes
// incompatibly; a journal with a different format is not replayable.
const journalFormat = 1

// journalHeader is the journal's first line: the run shape the entries
// belong to. Replay is gated on it — experiment, canonical params
// signature and shard count must all match the resuming run, so a
// journal can never be half-reused for a different run.
type journalHeader struct {
	Journal    int            `json:"journal"`
	Experiment string         `json:"experiment"`
	ParamsSig  string         `json:"params_sig"`
	Params     results.Params `json:"params"`
	Shards     int            `json:"shards"`
	// Run is the token of the run that created the journal — provenance
	// only; a resuming coordinator mints its own token.
	Run string `json:"run"`
}

// journal is the coordinator's append handle on its shard-result file:
// an append-only JSONL file (the results-store idiom) holding one
// header line followed by one experiment.ShardLine per accepted shard.
// Every line is written through to the OS as it is accepted, so a
// SIGKILLed coordinator loses at most the line it was mid-write on —
// which replay detects as a torn tail and drops.
type journal struct {
	path string
	f    *os.File
}

// openJournal opens (or creates) the journal at path for a run of spec
// at params over n shards, taking an exclusive advisory lock so two
// live coordinators can never interleave appends or truncate each
// other. A non-empty existing journal is replayed: the header must
// match the run shape exactly, and every intact entry is fed through
// replay; a torn final line (a coordinator killed mid-append) is
// truncated away, while corruption anywhere else — including a file
// that never was a journal — is a hard error, never a silent wipe.
// Returns the append handle positioned after the last intact line, and
// how many entries were replayed.
func openJournal(path string, spec *experiment.Spec, p results.Params, n int, run string, replay func(experiment.ShardLine) error) (*journal, int, error) {
	sig := p.Signature()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("remote: journal %s: %w", path, err)
	}
	fail := func(err error) (*journal, int, error) {
		f.Close()
		return nil, 0, err
	}
	if err := lockJournal(f); err != nil {
		return fail(fmt.Errorf("remote: journal %s is held by another live coordinator: %w", path, err))
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		return fail(fmt.Errorf("remote: journal %s: %w", path, err))
	}

	keep := 0 // byte offset just past the last intact line
	replayed := 0
	sawHeader := false
	for rest, offset := raw, 0; len(rest) > 0; {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			// An unterminated final line is a torn write from a killed
			// coordinator: drop it. At worst a complete-but-unterminated
			// entry re-runs its shard, which is always safe.
			break
		}
		line := bytes.TrimSpace(rest[:nl])
		switch {
		case len(line) == 0:
		case !sawHeader:
			var h journalHeader
			if err := json.Unmarshal(line, &h); err != nil || h.Journal != journalFormat {
				return fail(fmt.Errorf("remote: %s is not a shard-result journal", path))
			}
			if h.Experiment != spec.Name || h.ParamsSig != sig || h.Shards != n {
				return fail(fmt.Errorf(
					"remote: journal %s records a different run (%s, params %.12s, %d shards) than this one (%s, params %.12s, %d shards) — delete it or point -journal elsewhere",
					path, h.Experiment, h.ParamsSig, h.Shards, spec.Name, sig, n))
			}
			sawHeader = true
		default:
			var sl experiment.ShardLine
			if err := json.Unmarshal(line, &sl); err != nil {
				return fail(fmt.Errorf("remote: journal %s: corrupt entry after %d intact: %w", path, replayed, err))
			}
			if err := replay(sl); err != nil {
				return fail(fmt.Errorf("remote: journal %s: %w", path, err))
			}
			replayed++
		}
		offset += nl + 1
		keep = offset
		rest = raw[offset:]
	}
	if !sawHeader {
		// Only a file holding nothing but whitespace may be (re)written
		// from scratch. A non-empty file without one intact header line
		// is some other file — refusing beats truncating a stranger's
		// data to zero.
		if len(bytes.TrimSpace(raw)) > 0 {
			return fail(fmt.Errorf("remote: %s is not a shard-result journal", path))
		}
		keep = 0
	}

	if err := f.Truncate(int64(keep)); err != nil {
		return fail(fmt.Errorf("remote: journal %s: truncate torn tail: %w", path, err))
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return fail(fmt.Errorf("remote: journal %s: %w", path, err))
	}
	j := &journal{path: path, f: f}
	if !sawHeader {
		if err := j.writeLine(journalHeader{
			Journal: journalFormat, Experiment: spec.Name,
			ParamsSig: sig, Params: p, Shards: n, Run: run,
		}); err != nil {
			return fail(err)
		}
	}
	return j, replayed, nil
}

// append records one accepted shard result.
func (j *journal) append(sl experiment.ShardLine) error { return j.writeLine(sl) }

func (j *journal) writeLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("remote: journal %s: encode: %w", j.path, err)
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("remote: journal %s: %w", j.path, err)
	}
	return nil
}

// close releases the file handle; nil-safe so Coordinator.Close works
// without a journal.
func (j *journal) close() error {
	if j == nil || j.f == nil {
		return nil
	}
	return j.f.Close()
}
