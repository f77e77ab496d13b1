package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
)

func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr bool
	}{
		{nil, false},
		{[]string{"-only", "e6", "-warmup", "0"}, false},
		{[]string{"-only", "synth", "-seeds", "4"}, false},
		{[]string{"-n", "0"}, true},
		{[]string{"-only", "table1", "-warmup", "-1"}, true},
		{[]string{"-only", "synth", "-seeds", "0"}, true},
		{[]string{"-seeds", "-3"}, true},
		{[]string{"-only", "fig4"}, true},
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
	// An unknown artifact is named, with the valid ones listed.
	var stderr bytes.Buffer
	parseFlags([]string{"-only", "fig4"}, &stderr)
	if msg := stderr.String(); !strings.Contains(msg, `"fig4"`) || !strings.Contains(msg, "table1, fig2") {
		t.Errorf("-only fig4 message = %q, want the name and the valid artifacts", msg)
	}
	for _, a := range artifacts {
		if _, err := parseFlags([]string{"-only", a}, io.Discard); err != nil {
			t.Errorf("-only %s rejected: %v", a, err)
		}
	}
	if _, err := parseFlags([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: error = %v, want flag.ErrHelp", err)
	}
}
