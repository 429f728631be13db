// Command ccarepo inspects, queries, and serves a CCA component
// repository built from the built-in ESI deposits plus any SIDL files
// supplied on the command line — the paper's Repository API ("the
// functionality necessary to search a framework repository for
// components") from the shell, and as a network service.
//
// Usage:
//
//	ccarepo [flags] [extra.sidl ...]
//	ccarepo serve [-addr tcp://127.0.0.1:0] [-addr-file f] [-seed=false] [-import f]
//
// Flags:
//
//	-list                 list deposited components (default)
//	-describe             long listing with ports
//	-remote <addr>        run -list/-describe against a served repository
//	                      instead of the local built-ins
//	-provides <type>      search components providing a port usable as <type>
//	-uses <type>          search components using a port fed by <type>
//	-types                list every SIDL type in the merged table
//	-subtype <sub,super>  test SIDL subtype compatibility
//	-export <file>        save the repository (descriptions) as JSON
//	-import <file>        start from a saved repository instead of the
//	                      built-in ESI deposits
//
// `ccarepo serve` binds the repository it seeded as the networked
// component repository: an ORB object answering head/list/describe/fetch/
// deposit with monotonic versioning, which `ccafe load <file>.ccl`
// resolves against. Remote deposits land in that same store.
// It prints "serving N entries at ADDR" on stdout (and writes the bare
// address to -addr-file when given), then blocks until stdin closes or
// SIGINT/SIGTERM arrives.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/ccl"
	"repro/internal/esi"
	"repro/internal/orb"
	"repro/internal/repo"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serve(os.Args[2:])
		return
	}
	query()
}

// serve runs the repository as a network service until stdin closes or a
// signal arrives.
func serve(args []string) {
	fs := flag.NewFlagSet("ccarepo serve", flag.ExitOnError)
	addr := fs.String("addr", "tcp://127.0.0.1:0", "listen address")
	addrFile := fs.String("addr-file", "", "write the bound address to this file")
	seed := fs.Bool("seed", true, "seed the ESI component suite and the ccl consumer type")
	importPath := fs.String("import", "", "also load a saved repository JSON file")
	fs.Parse(args) //nolint:errcheck

	r := repo.New()
	if *seed {
		if err := esi.Deposit(r); err != nil {
			fatal(err)
		}
		if err := ccl.DepositConsumer(r); err != nil {
			fatal(err)
		}
	}
	if *importPath != "" {
		f, err := os.Open(*importPath)
		if err != nil {
			fatal(err)
		}
		err = r.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	oa := orb.NewObjectAdapter()
	r.Bind(oa)
	l, err := orb.ListenAddr(*addr)
	if err != nil {
		fatal(err)
	}
	srv := orb.Serve(oa, l)
	defer srv.Close()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("ccarepo: serving %d entries at %s\n", len(r.List()), srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	eof := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin) //nolint:errcheck
		close(eof)
	}()
	select {
	case <-sig:
	case <-eof:
	}
	fmt.Println("ccarepo: shutting down")
}

func query() {
	list := flag.Bool("list", false, "list deposited components")
	describe := flag.Bool("describe", false, "long listing")
	remote := flag.String("remote", "", "query a served repository at this address")
	provides := flag.String("provides", "", "search by provided port type")
	uses := flag.String("uses", "", "search by used port type")
	types := flag.Bool("types", false, "list SIDL types")
	subtype := flag.String("subtype", "", "test 'sub,super' compatibility")
	export := flag.String("export", "", "save the repository to a JSON file")
	importPath := flag.String("import", "", "load a saved repository JSON file first")
	flag.Parse()

	if *remote != "" {
		client, err := repo.DialService(*remote)
		if err != nil {
			fatal(err)
		}
		defer client.Close() //nolint:errcheck
		switch {
		case *describe:
			text, err := client.Describe()
			if err != nil {
				fatal(err)
			}
			fmt.Print(text)
		default:
			ls, err := client.List()
			if err != nil {
				fatal(err)
			}
			printListing(ls)
		}
		return
	}

	r := repo.New()
	if *importPath == "" {
		if err := esi.Deposit(r); err != nil {
			fatal(err)
		}
	}
	if *importPath != "" {
		f, err := os.Open(*importPath)
		if err != nil {
			fatal(err)
		}
		err = r.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	for i, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		if err := r.Deposit(repo.Entry{
			Name:        fmt.Sprintf("deposit.%d.%s", i, path),
			Description: "command-line SIDL deposit",
			SIDL:        string(src),
		}); err != nil {
			fatal(err)
		}
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fatal(err)
		}
		err = r.Save(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ccarepo: exported %d entries to %s\n", len(r.List()), *export)
	}

	switch {
	case *describe:
		fmt.Print(r.Describe())
	case *provides != "":
		for _, e := range r.Search(repo.Query{ProvidesType: *provides}) {
			fmt.Println(e.Name)
		}
	case *uses != "":
		for _, e := range r.Search(repo.Query{UsesType: *uses}) {
			fmt.Println(e.Name)
		}
	case *types:
		tbl := r.Table()
		for _, q := range tbl.Order {
			fmt.Printf("%-10s %s\n", tbl.Lookup(q), q)
		}
	case *subtype != "":
		parts := strings.SplitN(*subtype, ",", 2)
		if len(parts) != 2 {
			fatal(fmt.Errorf("want -subtype sub,super"))
		}
		ok := r.Table().IsSubtype(parts[0], parts[1])
		fmt.Printf("%s usable as %s: %v\n", parts[0], parts[1], ok)
	default:
		_ = list
		printListing(r.List())
	}
}

func printListing(ls []repo.Listing) {
	for _, l := range ls {
		fmt.Printf("%-40s %s\n", l.Name, l.Version)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccarepo:", err)
	os.Exit(1)
}
