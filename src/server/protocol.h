#ifndef OOCQ_SERVER_PROTOCOL_H_
#define OOCQ_SERVER_PROTOCOL_H_

/// The line/payload wire protocol of oocq_serve, factored out of the TCP
/// transport so it is testable (and smokable) without sockets.
///
/// Framing (docs/server.md has the full grammar):
///
///   request  := command-line "\n" [ payload ]
///   payload  := (line "\n")* "." "\n"          -- for payload verbs only
///   response := status-line "\n" (line "\n")* "." "\n"
///
/// A command line is a verb plus space-separated arguments; `key=value`
/// arguments become parameters (deadline_ms=50, id=req-7). Whether a verb
/// reads a payload is static (VerbHasPayload), so the transport can frame
/// without understanding the command. Every response ends with a lone "."
/// line, so clients frame responses the same way.
///
/// Status lines: "OK key=value ..." on success, "ERR <CODE> <message>" on
/// failure; CODE is the StatusCodeToString name, and DEADLINE_EXCEEDED /
/// UNAVAILABLE are the retryable pair (support/status.h).
#include <cstddef>
#include <string>
#include <vector>

#include "server/service.h"

namespace oocq::server {

/// The protocol revision this server speaks; negotiated by HELLO
/// (docs/server.md). Bump only for incompatible framing changes — new
/// verbs are discoverable through the HELLO capability list instead.
inline constexpr int kProtocolVersion = 1;

/// A single protocol line (command or payload) may not exceed this many
/// bytes; a client that streams more without a newline is a framing
/// violation and is dropped rather than allowed to grow the connection's
/// buffer without bound.
inline constexpr size_t kMaxLineBytes = 1 << 20;

/// A parsed command line: verb, positional args, key=value params, and
/// the optional wire-propagated request id (docs/observability.md#ids).
struct CommandLine {
  std::string verb;                 // upper-cased
  std::vector<std::string> args;    // positional, in order
  std::vector<std::pair<std::string, std::string>> params;
  /// From the `ID <token>` prefix: `ID r7 CONTAIN s1` parses as verb
  /// CONTAIN with request_id "r7". Echoed on the reply status line
  /// (`OK id=r7 ...` / `ERR CODE id=r7 ...`) and threaded as the `id`
  /// annotation through every span the request touches, so one token
  /// links socket read → queue → engine → WAL → reply in a trace export.
  std::string request_id;

  const std::string* Param(const std::string& key) const;
};

CommandLine ParseCommandLine(const std::string& line);

/// True when `verb` (upper-case) is followed by a "."-terminated payload.
bool VerbHasPayload(const std::string& verb);

/// Incremental framing state machine for the request side of the wire
/// protocol: raw bytes go in via Feed() as the EventServer reads them,
/// complete request frames come out of Next() with the payload already
/// dot-unstuffed. Frame state survives across Feed() calls, so a
/// request split over arbitrarily many TCP segments parses identically
/// to one delivered whole.
class ConnectionHandler {
 public:
  enum class FrameResult {
    kRequest,   // *command / *payload hold one complete request
    kNeedMore,  // no complete frame buffered; Feed() more bytes
    kViolation, // framing abuse (line over kMaxLineBytes); drop the conn
  };

  /// Appends raw bytes received from the peer.
  void Feed(const char* data, size_t size) { buffer_.append(data, size); }

  /// Extracts the next complete request. Blank lines between requests
  /// are skipped; a payload-verb frame is complete only once its "."
  /// terminator arrived. kViolation is sticky: the connection is beyond
  /// recovery and must be dropped.
  FrameResult Next(CommandLine* command, std::vector<std::string>* payload);

  /// Bytes buffered but not yet returned as a frame (read backpressure
  /// accounting for event-driven transports).
  size_t buffered_bytes() const { return buffer_.size(); }

  /// True while the handler is mid-payload — an EOF now is a truncated
  /// frame, not a clean close.
  bool mid_frame() const { return in_payload_; }

 private:
  /// Pops one "\n"-terminated line (terminator stripped, trailing "\r"
  /// dropped for telnet clients). False with *violation unset = need
  /// more bytes; false with *violation set = line over kMaxLineBytes.
  bool NextLine(std::string* line, bool* violation);

  std::string buffer_;
  size_t scan_from_ = 0;
  bool in_payload_ = false;
  bool violated_ = false;
  CommandLine pending_command_;
  std::vector<std::string> pending_payload_;
};

/// One protocol exchange, rendered ready-to-send (terminating ".\n"
/// included). `close` is set by QUIT.
struct ProtocolReply {
  std::string text;
  bool close = false;
};

/// The reply to a frame the transport sheds before Handle (the bounded
/// output buffer): a retryable ERR UNAVAILABLE carrying `why`, tagged
/// with the frame's `ID` token exactly as Handle tags its replies.
ProtocolReply ShedReply(const CommandLine& command, const std::string& why);

/// Executes one parsed request against `service` and renders the reply.
/// Never throws and never returns an unterminated reply — protocol
/// errors become ERR status lines.
class ProtocolHandler {
 public:
  explicit ProtocolHandler(OocqService* service) : service_(service) {}

  ProtocolReply Handle(const CommandLine& command,
                       const std::vector<std::string>& payload);

 private:
  /// Handle() minus the cross-cutting request-id plumbing: the wrapper
  /// opens the HandleRequest span, runs this, and tags the reply.
  ProtocolReply HandleInner(const CommandLine& command,
                            const std::vector<std::string>& payload);

  /// The REPL verb family — WAL shipping and promotion
  /// (docs/replication.md): SUBSCRIBE (long-poll a batch of durable WAL
  /// frames), STATE (positioned full dump for resync), STATUS
  /// (role/position introspection), PROMOTE (clear the readonly gate).
  ProtocolReply HandleRepl(const CommandLine& command);

  OocqService* service_;
};

}  // namespace oocq::server

#endif  // OOCQ_SERVER_PROTOCOL_H_
