// The daemon side of bench_e2e: an in-process svc::Server and one timed
// Client::analyze round trip.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>

#include "svc/client.hpp"
#include "svc/server.hpp"

namespace e2e {

/// A running svc::Server whose socket and report cache live in `dir`. The
/// directory is created fresh and removed again by the destructor.
class Daemon {
 public:
  Daemon(std::string dir, std::size_t jobs);  ///< throws when start() fails
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// A connected client; throws when the handshake fails.
  [[nodiscard]] std::unique_ptr<ppd::svc::Client> connect() const;

 private:
  std::string dir_;
  std::string socket_;
  std::unique_ptr<ppd::svc::Server> server_;
};

/// One request's outcome, timed from the client.
struct Exchange {
  static constexpr double kNone = std::numeric_limits<double>::quiet_NaN();

  bool ok = false;        ///< status Ok and the report equals the reference
  bool cached = false;    ///< served from the report cache
  bool rejected = false;  ///< refused by admission control (Overloaded)
  std::string error;      ///< why !ok
  double total_ms = 0.0;  ///< send to Report received
  // Gaps between client-side timestamps of the Progress frames; kNone when
  // the request skipped the stage (a cache hit is never queued).
  double accept_ms = kNone;    ///< send to the first `cache`/`queued` frame
  double queue_ms = kNone;     ///< `queued` to `running`
  double analysis_ms = kNone;  ///< `running` to `analyzed`
  double reply_ms = kNone;     ///< last Progress frame to the Report
};

/// Sends `bytes` and checks the report against `reference`. `refresh`
/// makes the server skip its cache lookup, so the request is analyzed (and
/// the cache entry rewritten) even when the bytes were seen before.
[[nodiscard]] Exchange exchange(ppd::svc::Client& client, const std::string& bytes,
                                bool refresh, const std::string& reference);

}  // namespace e2e
