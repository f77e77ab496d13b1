package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"testing"
)

func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr bool
	}{
		{nil, false},
		{[]string{"-bench", "libquantum", "-mode", "OoO", "-pf", "stride"}, false},
		{[]string{"-all", "-warmup", "0"}, false},
		{[]string{"-mode", "PRE", "-tracefile", "t.json"}, false},
		{[]string{"-list"}, false},
		{[]string{"-bench", "nosuch"}, true},
		{[]string{"-mode", "warp"}, true},
		{[]string{"-pf", "oracle"}, true},
		{[]string{"-n", "0"}, true},
		{[]string{"-n", "-5"}, true},
		{[]string{"-warmup", "-1"}, true},
		{[]string{"-all", "-tracefile", "t.json"}, true},
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
	o, err := parseFlags([]string{"-bench", "milc", "-mode", "RA-buffer", "-pf", "adaptive"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.w.Name != "milc" || o.mode.String() != "RA-buffer" || o.variant.Name != "adaptive" {
		t.Errorf("resolved bench/mode/pf = %s/%s/%s, want milc/RA-buffer/adaptive", o.w.Name, o.mode, o.variant.Name)
	}
	if _, err := parseFlags([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: error = %v, want flag.ErrHelp", err)
	}
}
