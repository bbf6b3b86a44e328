package main

import (
	"flag"
	"fmt"
	"os"

	"past/internal/logstore"
)

// runFsck implements the "pastctl fsck <dir>" subcommand. Exit codes: 0
// clean, 1 corruption found, 2 usage or I/O error.
func runFsck(args []string) int {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	quiet := fs.Bool("q", false, "print nothing on a clean store")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pastctl fsck [-q] <logstore-dir>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	rep, err := logstore.Fsck(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "pastctl: fsck:", err)
		return 2
	}
	if !rep.OK() {
		fmt.Print(rep)
		return 1
	}
	if !*quiet {
		fmt.Print(rep)
	}
	return 0
}
