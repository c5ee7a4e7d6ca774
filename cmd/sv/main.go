// Command sv builds, samples, queries, inspects and serves materialized
// sample views: "sv <command> [flags]", where "sv <command> -h" lists a
// command's flags. serve and route run until SIGINT or SIGTERM, then drain:
// in-flight batches finish writing before their connections close, and the
// final statistics print.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM) // released by the exit
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// commands maps each subcommand to its body. A body parses its own flags
// from args and reports a failure by returning it; run turns the failure
// into the exit status.
var commands = map[string]func(ctx context.Context, args []string, stdout, stderr io.Writer) error{
	"build":   build,
	"sample":  sample,
	"query":   query,
	"inspect": inspect,
	"serve":   serve,
	"route":   route,
}

const usageText = "usage: sv build|sample|query|inspect|serve|route [flags]\n"

// run executes the subcommand named by args[0] and returns the process's
// exit status: 0 on success, 2 for a command-line mistake, 1 for any other
// failure.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || commands[args[0]] == nil {
		if len(args) == 1 && (args[0] == "help" || args[0] == "-h") {
			fmt.Fprint(stdout, usageText)
			return 0
		}
		fmt.Fprint(stderr, usageText)
		return 2
	}
	err := commands[args[0]](ctx, args[1:], stdout, stderr)
	var f *failure
	switch {
	case err == nil:
		return 0
	case !errors.As(err, &f):
		f = &failure{code: 1, err: err}
	}
	if f.err != nil {
		fmt.Fprintf(stderr, "sv %s: %v\n", args[0], f)
	}
	return f.code
}

// failure is an error that ends a command with a given exit status. A nil
// err means the diagnosis is already printed.
type failure struct {
	code int
	err  error
}

func (f *failure) Error() string { return fmt.Sprint(f.err) }

// fail ends the command with exit status code, printing err if it is not nil.
func fail(code int, err error) error { return &failure{code: code, err: err} }

// newFlags returns the flag set of subcommand name, reporting to stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("sv "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args into fs. The flag package has already printed what
// went wrong (or the help asked for) when this returns an error.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return fail(0, nil)
	} else if err != nil {
		return fail(2, nil)
	}
	return nil
}

// misuse reports a missing or inconsistent flag the way the flag package
// reports an unknown one: the message, then the flag set's usage.
func misuse(fs *flag.FlagSet, msg string) error {
	fmt.Fprintf(fs.Output(), "%s: %s\n", fs.Name(), msg)
	fs.Usage()
	return fail(2, nil)
}
