package main

import "auditfix/lib"

func main() { lib.Used() }
