package main

import "testing"

// TestYardstickWorkIsFixed pins the yardstick's input and its matches:
// the yardstick scales every end-to-end host time, so a change to its
// work would move every later comparison.
func TestYardstickWorkIsFixed(t *testing.T) {
	if n := len(yardText); n != 47288 {
		t.Errorf("yardstick corpus is %d bytes, pinned 47288", n)
	}
	if n := len(yardPattern.FindAllIndex(yardText, -1)); n != 115 {
		t.Errorf("yardstick pattern matches %d times, pinned 115", n)
	}
}
