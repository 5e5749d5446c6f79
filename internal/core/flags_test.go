package core

import (
	"flag"
	"reflect"
	"testing"
	"time"
)

// TestMergeRunFlagsReplaysEveryFlag: every flag BindRunFlags registers
// survives MergeRunFlags' replay by its textual value — set them all and
// the merged options equal what the command line parsed — and flags
// left unset keep the base's values, whatever their defaults.
func TestMergeRunFlagsReplaysEveryFlag(t *testing.T) {
	cli := RunOptions{KeepGoing: true}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindRunFlags(fs, &cli)
	err := fs.Parse([]string{
		"-jobs", "3", "-timeout", "1m30s", "-check", "-keep-going=false",
		"-retries", "2", "-retry-backoff", "250ms", "-replica-timeout", "5s",
		"-checkpoint", "ck", "-checkpoint-every", "7", "-resume", "rs",
	})
	if err != nil {
		t.Fatal(err)
	}
	var set, all int
	fs.Visit(func(*flag.Flag) { set++ })
	fs.VisitAll(func(*flag.Flag) { all++ })
	if set != all {
		t.Fatalf("the command line sets %d of %d run flags; set them all", set, all)
	}
	base := RunOptions{Jobs: 9}
	if got := MergeRunFlags(fs, base); !reflect.DeepEqual(got, cli) {
		t.Errorf("merged %+v\nwant   %+v", got, cli)
	}

	partial := flag.NewFlagSet("test", flag.ContinueOnError)
	BindRunFlags(partial, &RunOptions{KeepGoing: true})
	if err := partial.Parse([]string{"-jobs", "3"}); err != nil {
		t.Fatal(err)
	}
	base = RunOptions{Jobs: 9, Timeout: 5 * time.Second}
	if got := MergeRunFlags(partial, base); got.Jobs != 3 || got.Timeout != 5*time.Second || got.KeepGoing {
		t.Errorf("merged %+v, want only Jobs overridden", got)
	}
}
