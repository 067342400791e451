package main

import (
	"reflect"
	"testing"
)

func TestParseMuted(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []uint16 // handles muted; ignored when err is set
		err  bool
	}{
		{spec: "", want: []uint16{}},
		{spec: "0x11,0x13", want: []uint16{0x11, 0x13}},
		{spec: "17, 19", want: []uint16{0x11, 0x13}},
		{spec: "16,0x14", want: []uint16{0x10, 0x14}},
		{spec: "0X12", want: []uint16{0x12}},
		{spec: "0x15", err: true}, // one past the last deployed capsule
		{spec: "15", err: true},   // one before the first
		{spec: "0x17", err: true},
		{spec: "twelve", err: true},
		{spec: "0x10000", err: true},
		{spec: "-17", err: true},
	} {
		got, err := parseMuted(tc.spec)
		if tc.err {
			if err == nil {
				t.Errorf("parseMuted(%q) = %v, want an error", tc.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseMuted(%q): %v", tc.spec, err)
			continue
		}
		want := make(map[uint16]bool)
		for _, h := range tc.want {
			want[h] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseMuted(%q) = %v, want %v", tc.spec, got, want)
		}
	}
}
