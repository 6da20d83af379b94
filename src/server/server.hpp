// Daemon transport: newline-delimited JSON over stdio or a Unix socket.
//
// Stream mode (dnoise_cli --serve) runs TWO threads:
//   - a reader that pulls request lines off the input and stamps each
//     with an admission verdict AT ENQUEUE TIME (depth < soft: accept;
//     < hard: degrade; otherwise shed),
//   - a worker (the calling thread) that executes requests strictly in
//     arrival order against the resident Session.
// Stamping at enqueue keeps the response stream in request order — a
// shed marker travels through the same queue as the work it displaced.
// The loop ends when input is exhausted; after a shutdown verb, every
// remaining and subsequent request is answered kUnavailable without
// executing, so a pipelined script always gets one response per line.
//
// Socket mode accepts one client at a time on a Unix-domain socket; the
// Session persists ACROSS connections (that is the point of a resident
// daemon: reconnect and the design, caches, and results are still warm).
// A shutdown verb ends the accept loop and removes the socket file.
//
// Both transports split their input with a LineReader bounded by
// ProtocolLimits::max_request_bytes: past the limit a line is counted,
// not stored, so a client that never sends a newline cannot grow the
// server's memory, and it still gets one in-order kInvalidArgument.
//
// Lifecycle: both transports install SIGTERM/SIGINT handlers (without
// SA_RESTART, so blocking reads return EINTR) and drain gracefully — the
// in-flight request and everything already queued finish and get their
// responses, then the session snapshots (journal truncated) and the
// process exits 0. kill -9 is the crash path the journal exists for.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "server/session.hpp"

namespace dn::server {

/// One request line at a time from a byte stream, storing at most `limit`
/// bytes of it (0 = no limit); the rest of a longer line, up to its
/// newline, is counted and dropped.
class LineReader {
 public:
  explicit LineReader(std::size_t limit = 0) : limit_(limit) {}

  /// Reads the next line of `in`, newline dropped. False at end of input
  /// when no byte of a new line was read.
  bool read(std::istream& in);

  /// Consumes data[0, n) up to and including its first newline and
  /// returns the bytes consumed; complete() turns true when a newline
  /// ended the line. The next feed after a complete line starts a new one.
  std::size_t feed(const char* data, std::size_t n);

  bool complete() const { return complete_; }
  /// The stored bytes of the line: all of it unless oversized().
  const std::string& text() const { return text_; }
  /// Length of the whole line so far, newline excluded.
  std::size_t bytes() const { return bytes_; }
  bool oversized() const { return limit_ > 0 && bytes_ > limit_; }

 private:
  void restart();
  void append(const char* data, std::size_t n);

  std::size_t limit_;
  std::string text_;
  std::size_t bytes_ = 0;
  bool complete_ = false;
};

struct ServerOptions {
  /// Queue depth at which analyze fidelity degrades (rtr_to_rth rung).
  std::size_t queue_soft_limit = 8;
  /// Queue depth past which requests are shed with kUnavailable.
  std::size_t queue_hard_limit = 64;
  AnalysisConfig config{};
  DurabilityOptions durability{};
  ProtocolLimits limits{};
  /// Install SIGTERM/SIGINT graceful-drain handlers. On by default for
  /// the CLI; tests running a server in-process keep their own handlers.
  bool handle_signals = true;
};

class Server {
 public:
  explicit Server(ServerOptions opts = {});

  /// Serves `in` to `out` until EOF. Returns the process exit code: 0
  /// unless the transport itself failed (protocol errors are responses,
  /// not exit codes).
  int serve_stream(std::istream& in, std::ostream& out);

  /// Binds `path` and serves one connection at a time until a shutdown
  /// verb. Returns the process exit code.
  int serve_unix(const std::string& path);

  Session& session() { return session_; }
  const ServerOptions& options() const { return opts_; }

 private:
  ServerOptions opts_;
  Session session_;
};

}  // namespace dn::server
