// The benchmark is a module of its own so that building, vetting and
// testing the repository (`go build ./... && go test ./...` at the root)
// never compiles or runs it. The import path stays under repro/, which is
// what lets it reach repro/internal/...
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
