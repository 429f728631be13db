//go:build windows

package main

import "auditfix/lib"

func init() { lib.WindowsOnly() }
