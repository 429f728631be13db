// Package ckpt implements the checkpoint wire format behind the
// cca.Checkpointable port interface: a versioned, length-prefixed,
// CRC-guarded binary stream of named sections, plus the atomic file
// contract (temp file + rename).
//
// # Wire format
//
// A checkpoint stream is
//
//	magic   "RCK1"                      4 bytes
//	version uint16 LE                   (current: Version)
//	flags   uint16 LE                   (reserved, zero)
//	section*                            zero or more
//	end     uint16 LE = 0xFFFF          mandatory trailer
//
// and each section is
//
//	nameLen uint16 LE                   (0xFFFF reserved for the trailer)
//	name    nameLen bytes               UTF-8, unique per stream
//	payLen  uint64 LE
//	payload payLen bytes
//	crc     uint32 LE                   IEEE CRC-32 over name+payload
//
// The reader refuses streams whose version is newer than it understands
// (ErrVersion), whose sections fail their CRC (ErrCRC), or that end before
// the trailer (ErrTruncated) — a stream cut at any byte, including exactly
// on a section boundary, is detected. Sections a reader does not recognize
// are skipped, which is what makes the format versionable: a newer writer
// may add sections without breaking an older reader of the same version.
//
// # Atomic files
//
// SaveTo writes through a temporary file in the destination directory and
// renames it over the target only after the stream (including the trailer)
// has been flushed and synced. A crash mid-Checkpoint therefore leaves
// either the previous complete checkpoint or a stray temp file — never a
// partial file under the checkpoint's name. LoadInto verifies the trailer,
// so even a partial file planted under the real name is rejected with a
// typed error instead of restoring half a state.
//
// # Distributed arrays
//
// A distributed array is checkpointed by composing a collective.Plan whose
// other side is collective.Serial at one root rank, Transfer-ing the local
// chunks there, and writing the global array as a Float64s section (and
// the reverse to restore). Float64s payloads store raw IEEE-754 bits, so
// the round trip is bit-identical.
package ckpt
