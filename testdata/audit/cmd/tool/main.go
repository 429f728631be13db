package main

import "auditfix/lib"

func main() {
	var o lib.Options
	if o.ToolSet == 0 {
		o.ToolSet = 2
	}
	lib.Read(o)
	lib.Used()
}
