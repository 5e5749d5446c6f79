package spec

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpecDecode feeds arbitrary bytes to Parse, the decoder wormsimd
// runs on every HTTP submission. No input may panic, and every accepted
// input must reach a canonical fixed point: Canonical → Parse →
// Canonical reproduces the same bytes. The corpus seeds from the golden
// spec fixtures and the YAML and reject cases of spec_test.go.
func FuzzSpecDecode(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("testdata", "golden", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range golden {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(yamlDemoDoc))
	for _, tc := range parseRejectCases {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		canon, err := s.Canonical()
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, canon)
		}
		canon2, err := s2.Canonical()
		if err != nil {
			t.Fatalf("re-parsed spec does not encode: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", canon, canon2)
		}
	})
}
