package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"slices"
	"testing"
)

func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr bool
	}{
		{[]string{"-sst"}, false},
		{[]string{"-synth", "-seeds", "4", "-synthseed", "7"}, false},
		{[]string{"-sst", "-pf", "-server", "http://127.0.0.1:1"}, false},
		{nil, true},
		{[]string{"-sst", "-n", "0"}, true},
		{[]string{"-sst", "-warmup", "0"}, true},
		{[]string{"-sst", "-seeds", "4"}, true},
		{[]string{"-pf", "-synthseed", "7"}, true},
		{[]string{"-sst", "-emq", "-tracefile", "t.json"}, true},
		{[]string{"-sst", "-server", "http://127.0.0.1:1", "-workers", "2"}, true},
		{[]string{"-no-such-flag"}, true},
	} {
		var stderr bytes.Buffer
		_, err := parseFlags(tc.args, &stderr)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseFlags(%q) error = %v, want error %v", tc.args, err, tc.wantErr)
		}
		if tc.wantErr && stderr.Len() == 0 {
			t.Errorf("parseFlags(%q) rejected the flags without a message", tc.args)
		}
	}
	o, err := parseFlags([]string{"-synth", "-mshr", "-sst"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, i := range o.selected {
		ids = append(ids, sweeps[i].id)
	}
	if got, want := ids, []string{"a1_sst", "mshr", "synth_population"}; !slices.Equal(got, want) {
		t.Errorf("selected sweeps = %v, want %v in catalogue order", got, want)
	}
	if _, err := parseFlags([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: error = %v, want flag.ErrHelp", err)
	}
}
