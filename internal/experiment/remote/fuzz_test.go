package remote

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"unicode/utf8"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// FuzzLeaseRequest round-trips the lease-side wire documents: whatever
// field values a worker or coordinator produces must survive
// encode → decode losslessly, because the scheduler's bookkeeping (and
// therefore crash tolerance) rides on these fields.
func FuzzLeaseRequest(f *testing.F) {
	f.Add("host-1234-1", "L7", int64(0), int64(5), int64(10000), false, false)
	f.Add("", "", int64(-3), int64(1<<40), int64(0), true, true)
	f.Add("wörker\x00", "L\n999", int64(7), int64(7), int64(-1), false, true)
	f.Fuzz(func(t *testing.T, worker, id string, start, end, expires int64, wait, done bool) {
		// Strict value equality holds for valid UTF-8 (everything the
		// protocol actually produces); arbitrary bytes may be normalized
		// to U+FFFD by encoding/json, so the universal property is
		// marshal→unmarshal→marshal idempotence.
		req := LeaseRequest{Worker: worker, Run: id}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal LeaseRequest: %v", err)
		}
		var req2 LeaseRequest
		if err := json.Unmarshal(raw, &req2); err != nil {
			t.Fatalf("unmarshal LeaseRequest: %v", err)
		}
		if utf8.ValidString(worker) && utf8.ValidString(id) && req2 != req {
			t.Errorf("LeaseRequest round-trip: %+v -> %+v", req, req2)
		}
		raw2, err := json.Marshal(req2)
		if err != nil {
			t.Fatalf("re-marshal LeaseRequest: %v", err)
		}
		var req3 LeaseRequest
		if err := json.Unmarshal(raw2, &req3); err != nil {
			t.Fatalf("re-unmarshal LeaseRequest: %v", err)
		}
		if req3 != req2 {
			t.Errorf("LeaseRequest not a fixed point after normalization: %+v -> %+v", req2, req3)
		}

		lease := Lease{
			ID: id, Run: worker, Start: int(start), End: int(end),
			ExpiresMillis: expires, Wait: wait, Done: done,
			PollMillis: expires / 2,
		}
		raw, err = json.Marshal(lease)
		if err != nil {
			t.Fatalf("marshal Lease: %v", err)
		}
		var lease2 Lease
		if err := json.Unmarshal(raw, &lease2); err != nil {
			t.Fatalf("unmarshal Lease: %v", err)
		}
		if utf8.ValidString(id) && utf8.ValidString(worker) && lease2 != lease {
			t.Errorf("Lease round-trip: %+v -> %+v", lease, lease2)
		}
		raw2, err = json.Marshal(lease2)
		if err != nil {
			t.Fatalf("re-marshal Lease: %v", err)
		}
		var lease3 Lease
		if err := json.Unmarshal(raw2, &lease3); err != nil {
			t.Fatalf("re-unmarshal Lease: %v", err)
		}
		if lease3 != lease2 {
			t.Errorf("Lease not a fixed point after normalization: %+v -> %+v", lease2, lease3)
		}
	})
}

// FuzzResultLine feeds arbitrary bytes to a live coordinator's /results
// endpoint: the coordinator must never panic, must answer with a
// protocol status (2xx accept, 400/409/410 reject), and must keep its
// shard bookkeeping consistent — fuzz bytes may complete shards (the
// seeds include valid lines) but must never complete more shards than
// exist or corrupt a completed value. Bodies of many lines are applied
// in order up to the first rejection: the ack counts exactly the lines
// applied, and no line after the rejected one completes a shard.
func FuzzResultLine(f *testing.F) {
	// The fuzz coordinator's run token is pinned to "RT" (the test owns
	// the unexported field) so static seeds can exercise the accept path;
	// seeds with other tokens cover the 410 cross-run rejection.
	valid, _ := json.Marshal(ResultLine{Run: "RT", Lease: "L1", ShardLine: experiment.ShardLine{Shard: 0, Value: json.RawMessage("42")}})
	errLine, _ := json.Marshal(ResultLine{Run: "RT", Lease: "L1", ShardLine: experiment.ShardLine{Shard: 1, Err: "boom"}})
	f.Add(append(valid, '\n'))
	f.Add(errLine)
	f.Add([]byte("{\"run\":\"RT\",\"lease\":\"L1\",\"shard\":99,\"value\":3}\n"))
	f.Add([]byte("{\"run\":\"RT\",\"lease\":\"L999\",\"shard\":0,\"value\":3}\n"))
	f.Add([]byte("{\"run\":\"other-run\",\"lease\":\"L1\",\"shard\":0,\"value\":3}\n"))
	f.Add([]byte("{\"lease\":\"L1\",\"shard\":0,\"value\":3}\n"))
	f.Add([]byte("not json at all"))
	f.Add([]byte("{\"run\":\"RT\",\"lease\":\"L1\",\"shard\":0,\"value\":\"banana\"}\n"))
	f.Add(bytes.Repeat([]byte("{}\n"), 50))
	f.Add([]byte("\x00\xff\xfe{\n\n"))
	// Multi-line bodies, as a worker posts a chunk's later results: two valid
	// lines, and a malformed line between two valid ones (the third must
	// not be applied).
	valid1, _ := json.Marshal(ResultLine{Run: "RT", Lease: "L1", ShardLine: experiment.ShardLine{Shard: 1, Value: json.RawMessage("7")}})
	valid2, _ := json.Marshal(ResultLine{Run: "RT", Lease: "L1", ShardLine: experiment.ShardLine{Shard: 2, Value: json.RawMessage("9")}})
	f.Add([]byte(string(valid) + "\n" + string(valid1) + "\n"))
	f.Add([]byte(string(valid) + "\n{\"run\":\"RT\",\"lease\":\n" + string(valid2) + "\n"))

	f.Fuzz(func(t *testing.T, body []byte) {
		coord, err := NewCoordinator(fuzzSpec(), results.Params{Trials: 3}, 3, Config{Chunk: 3})
		if err != nil {
			t.Fatal(err)
		}
		coord.run = "RT"
		srv := httptest.NewServer(coord.Handler())
		defer srv.Close()
		// Issue L1 so seeds that reference it exercise the accept path.
		resp, err := http.Post(srv.URL+"/lease", "application/json", bytes.NewReader([]byte(`{"worker":"fuzz","run":"RT"}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		resp, err = http.Post(srv.URL+"/results", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusGone:
		default:
			t.Errorf("unexpected status %d for body %q", resp.StatusCode, body)
		}
		var ack ResultAck
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatalf("status %d: undecodable ack: %v", resp.StatusCode, err)
		}
		// The lines as the coordinator scans them: newline-split, trimmed,
		// empty ones skipped.
		var lines [][]byte
		for _, line := range bytes.Split(body, []byte("\n")) {
			if line = bytes.TrimSpace(line); len(line) > 0 {
				lines = append(lines, line)
			}
		}
		switch {
		case ack.Accepted < 0 || ack.Accepted > len(lines):
			t.Errorf("ack counts %d of %d lines", ack.Accepted, len(lines))
		case resp.StatusCode == http.StatusOK && ack.Accepted != len(lines):
			t.Errorf("200 ack counts %d lines, body has %d: every line of an accepted body is applied", ack.Accepted, len(lines))
		case resp.StatusCode != http.StatusOK && ack.Accepted == len(lines):
			t.Errorf("status %d with all %d lines counted as applied", resp.StatusCode, len(lines))
		}
		if st := coord.Stats(); st.ResultPosts != 1 || st.ResultLines != ack.Accepted {
			t.Errorf("stats result posts/lines = %d/%d, want 1/%d", st.ResultPosts, st.ResultLines, ack.Accepted)
		}
		applied := lines[:min(max(ack.Accepted, 0), len(lines))]

		// Bookkeeping invariants survive arbitrary input.
		coord.mu.Lock()
		doneCount := 0
		for i, d := range coord.done {
			if d {
				doneCount++
				if coord.values[i] == nil || len(coord.raw[i]) == 0 {
					t.Errorf("shard %d done without value/raw", i)
				}
				var decoded float64
				if err := json.Unmarshal(coord.raw[i], &decoded); err != nil {
					t.Errorf("shard %d accepted undecodable bytes %q", i, coord.raw[i])
				}
				// Only an applied line — one before the first rejection —
				// may have completed the shard.
				byApplied := false
				for _, line := range applied {
					var rl ResultLine
					if json.Unmarshal(line, &rl) == nil && rl.Shard == i && bytes.Equal(rl.Value, coord.raw[i]) {
						byApplied = true
					}
				}
				if !byApplied {
					t.Errorf("shard %d completed by a line after the first rejection (ack %d of %d lines)", i, ack.Accepted, len(lines))
				}
			}
		}
		if coord.remaining != coord.n-doneCount {
			t.Errorf("remaining = %d, want %d", coord.remaining, coord.n-doneCount)
		}
		coord.mu.Unlock()
	})
}

// fuzzSpec builds a fresh spec per fuzz iteration (Register would panic
// on duplicates; the fuzz coordinator only needs NewShard).
func fuzzSpec() *experiment.Spec {
	return &experiment.Spec{
		Name:     "fuzz-results",
		Plan:     func(p results.Params) (int, error) { return p.Trials, nil },
		NewShard: func() any { return new(float64) },
	}
}

// TestResultLineRoundTrip pins the ResultLine wire shape: the embedded
// ShardLine fields flatten into the same object as the run and lease
// tags, and values survive untouched.
func TestResultLineRoundTrip(t *testing.T) {
	in := ResultLine{Run: "R1", Lease: "L3", ShardLine: experiment.ShardLine{Shard: 7, Value: json.RawMessage(`{"x":1.5}`)}}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"run":"R1","lease":"L3","shard":7,"value":{"x":1.5}}`
	if string(raw) != want {
		t.Errorf("wire form %s, want %s", raw, want)
	}
	var out ResultLine
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round-trip %+v -> %+v", in, out)
	}
}
