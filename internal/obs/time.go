package obs

import (
	"time"
	_ "unsafe" // for go:linkname
)

// nanotime is the runtime's monotonic clock in nanoseconds; only
// differences between readings are meaningful. time.Now costs ~65ns where
// no vDSO fast path is available; the direct monotonic read roughly
// halves that, and Mono (TSC-backed on amd64, this clock elsewhere)
// halves it again — the instrumented hot paths read Mono, and nanotime is
// the calibration reference and fallback (benchmarked in E10).
// runtime.nanotime is on the linker's legacy allowlist, so this pull-style
// linkname keeps working under the Go 1.23+ linkname restrictions.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// wallBase anchors the monotonic clock to the wall clock once at process
// start, so span timestamps can be derived from a single monotonic read.
var wallBase = time.Now().UnixNano() - nanotime()

// MonoToWall converts a nanotime or Mono reading into Unix nanoseconds
// using the process-start anchor. The result ignores wall-clock adjustments (NTP
// steps) made after startup — fine for trace timestamps, which only need
// to line up with each other; not a substitute for time.Now where absolute
// accuracy matters.
func MonoToWall(mono int64) int64 { return wallBase + mono }
