#ifndef OOCQ_PERSIST_CODEC_H_
#define OOCQ_PERSIST_CODEC_H_

/// The binary record codec of the durable catalog (docs/persistence.md).
///
/// Catalog files — the write-ahead log and every snapshot — share one
/// format: a header followed by length-prefixed, CRC-checksummed frames:
///
///   file   := header frame*
///   header := magic(8) version(u32) fingerprint(varstr)
///   frame  := payload_len(u32) crc32(payload)(u32) payload
///
/// The payload is one Record: the catalog mutation kinds (CreateSession /
/// DefineQuery / SetState / DropSession) carry the *textual* round-trip
/// forms of their objects (SchemaToString / QueryToString / StateToString,
/// all of which re-parse), and CacheEntry carries a containment-cache key
/// (the canonical-pair byte string of core/canonical.h) plus its verdict.
///
/// Two guards reject stale bytes instead of trusting them:
/// - the per-frame CRC32 catches torn appends and bit rot; a replay
///   truncates the file at the first bad frame (wal.h);
/// - the header's format version and *engine fingerprint* — a hash of the
///   canonical-key algorithm's actual output on probe queries — reject a
///   whole file written by an incompatible engine, so cached verdicts
///   keyed under an older canonical form are never replayed as truth.
#include <cstdint>
#include <string>
#include <string_view>

#include "support/status.h"

namespace oocq::persist {

/// Bumped on any incompatible change to the frame or payload layout.
inline constexpr uint32_t kFormatVersion = 1;

/// Frames larger than this are treated as corruption, not allocation
/// requests — a flipped length byte must not OOM the replay.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

/// Identifies the semantics of the engine that wrote a file: a hash of
/// kFormatVersion and of CanonicalKey() outputs on fixed probe queries.
/// If the canonicalization algorithm changes, the fingerprint changes
/// with it and old cache entries are rejected wholesale. Deterministic
/// across processes and runs; computed once per process.
const std::string& EngineFingerprint();

enum class RecordType : uint8_t {
  kCreateSession = 1,  // session_id + schema text
  kDefineQuery = 2,    // session_id + name + query text
  kSetState = 3,       // session_id + state text
  kDropSession = 4,    // session_id
  kCacheEntry = 5,     // session_id + canonical-pair key (text) + verdict
};

const char* RecordTypeName(RecordType type);

/// One catalog record. Which fields are meaningful depends on `type`;
/// unused fields encode as empty and decode back as empty. Every field
/// has an initializer, so a designated initializer names only the fields
/// its type uses.
struct Record {
  RecordType type = RecordType::kCreateSession;
  std::string session_id = {};
  std::string name = {};  // kDefineQuery: the @name being defined
  std::string text = {};  // schema / query / state text, or the cache key
  bool verdict = false;   // kCacheEntry: the memoized containment verdict

  friend bool operator==(const Record& a, const Record& b) {
    return a.type == b.type && a.session_id == b.session_id &&
           a.name == b.name && a.text == b.text && a.verdict == b.verdict;
  }
};

/// CRC-32 (IEEE 802.3) of `data`.
uint32_t Crc32(std::string_view data);

/// Appends the framed encoding of `record` to `*out`.
void EncodeRecord(const Record& record, std::string* out);

/// Appends the file header (magic + version + `fingerprint`) to `*out`.
/// The fingerprint parameter exists so tests can write mismatched
/// headers; production callers use the default.
void EncodeFileHeader(std::string* out,
                      std::string_view fingerprint = EngineFingerprint());

/// Size in bytes of the header EncodeFileHeader writes.
size_t EncodedHeaderSize(std::string_view fingerprint = EngineFingerprint());

/// Verifies the header at `*offset` and advances past it. A wrong magic,
/// version or fingerprint is kFailedPrecondition (callers degrade to a
/// cold start); a buffer shorter than the header is kInvalidArgument.
Status DecodeFileHeader(std::string_view buffer, size_t* offset);

enum class DecodeResult {
  kOk,        // one record decoded, *offset advanced
  kNeedMore,  // clean EOF or a torn frame: the tail is incomplete
  kCorrupt,   // checksum/type/length violation at *offset
};

/// Decodes one frame at `*offset`. Advances `*offset` only on kOk.
DecodeResult DecodeRecord(std::string_view buffer, size_t* offset,
                          Record* out);

}  // namespace oocq::persist

#endif  // OOCQ_PERSIST_CODEC_H_
