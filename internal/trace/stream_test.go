package trace

import (
	"strings"
	"testing"
)

func TestReadFuncMatchesRead(t *testing.T) {
	tr := handTrace()
	var b strings.Builder
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	var streamed []Record
	if err := ReadFunc(strings.NewReader(b.String()), func(r *Record) error {
		streamed = append(streamed, *r)
		return nil
	}); err != nil {
		t.Fatalf("ReadFunc: %v", err)
	}
	if len(streamed) != len(tr.Records) {
		t.Fatalf("streamed %d records, want %d", len(streamed), len(tr.Records))
	}
	for i := range streamed {
		if streamed[i] != tr.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestReadFuncAbortsOnCallbackError(t *testing.T) {
	tr := handTrace()
	var b strings.Builder
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	calls := 0
	err := ReadFunc(strings.NewReader(b.String()), func(r *Record) error {
		calls++
		if calls == 2 {
			return errStop
		}
		return nil
	})
	if err != errStop || calls != 2 {
		t.Errorf("err=%v calls=%d, want errStop after 2", err, calls)
	}
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }

func TestReadFuncMalformed(t *testing.T) {
	if err := ReadFunc(strings.NewReader("1\t2\n"), func(*Record) error { return nil }); err == nil {
		t.Error("short line should fail")
	}
}
