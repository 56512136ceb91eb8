package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// inputs.json records the SHA-256 of every generated input at seed 1,
// keyed "<scale>/<workload>/<input>". The inputs come from netsim and
// from this directory's generators; if either drifts, a later change
// would be measured on a different workload than its parent, so a
// seed-1 run stops instead. TestRecordedInputs rewrites the file.
//
//go:embed inputs.json
var recordedInputsJSON []byte

func recordedInputs() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(recordedInputsJSON, &m); err != nil {
		return nil, fmt.Errorf("inputs.json: %w", err)
	}
	return m, nil
}

// guardInput holds one generated input's hash against the recorded one.
// Only seed 1 is recorded; other seeds pass.
func (r *run) guardInput(input, sha string) error {
	if r.cfg.seed != 1 {
		return nil
	}
	key := r.cfg.scale + "/" + r.cfg.workload + "/" + input
	if r.record != nil {
		r.record[key] = sha
		return nil
	}
	want, err := recordedInputs()
	if err != nil {
		return err
	}
	if want[key] != sha {
		return fmt.Errorf("input drift: %s hashes to %s at seed 1, inputs.json records %q: "+
			"netsim or the benchmark's generators changed, so this run would not measure the recorded workload", key, sha, want[key])
	}
	return nil
}
