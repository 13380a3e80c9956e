package main

import (
	"encoding/json"
	"strings"
	"testing"

	"specinterference/internal/cmdtest"
)

func TestSmoke(t *testing.T) {
	out := cmdtest.Run(t, "", "-poc", "dcache", "-bits", "2", "-reps", "1")
	if !strings.Contains(out, "Figure 11") || !strings.Contains(out, "reps=") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestSmokeJSON(t *testing.T) {
	out := cmdtest.Run(t, "", "-poc", "icache", "-bits", "2", "-reps", "1,3", "-json", "-parallel", "2")
	var curves []struct {
		PoC    string `json:"poc"`
		Points []struct {
			Reps int `json:"reps"`
			Bits int `json:"bits"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(out), &curves); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(curves) != 1 || curves[0].PoC != "icache" || len(curves[0].Points) != 2 {
		t.Errorf("unexpected JSON payload: %+v", curves)
	}
}
