//go:build race

package transport

// raceEnabled gates scheduling-time assertions: the race runtime slows
// every memory access several-fold, so a peer's reply can outlast the
// waiter's yield window for reasons that are the detector's, not the
// code's.
const raceEnabled = true
