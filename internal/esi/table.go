package esi

import (
	_ "embed"
	"sync"

	"repro/internal/repo"
	"repro/internal/sidl"
)

//go:embed esi.sidl
var esiSIDL string

//go:embed ports.sidl
var portsSIDL string

var (
	tableOnce sync.Once
	tableVal  *sidl.Table
	tableErr  error
)

// Table returns the resolved SIDL symbol table of the embedded definitions.
func Table() (*sidl.Table, error) {
	tableOnce.Do(func() {
		var files []*sidl.File
		for _, src := range []string{esiSIDL, portsSIDL} {
			f, err := sidl.Parse(src)
			if err != nil {
				tableErr = err
				return
			}
			files = append(files, f)
		}
		tableVal, tableErr = sidl.Resolve(files...)
	})
	return tableVal, tableErr
}

// TypeChecker returns a framework port-type checker: repo.CheckPortType
// over the embedded ESI definitions.
func TypeChecker() func(usesType, providesType string) error {
	tbl, _ := Table() // nil on a resolve error: exact matching only
	return func(u, p string) error { return repo.CheckPortType(tbl, u, p) }
}
