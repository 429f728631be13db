//go:build noasm

package main

import "auditfix/lib"

func init() { lib.NoasmOnly() }
