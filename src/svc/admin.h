// Blocking client for olevd's read-only admin plane (docs/SERVING.md,
// "Admin protocol"): newline-delimited text commands in, one line of JSON
// out per command.  Used by olev_top and the admin tests.  Lives in src/svc
// so the raw socket calls stay inside the one target lint rule R5 allows
// them in.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "svc/socket.h"

namespace olev::svc {

class AdminClient {
 public:
  /// Connects to host:port, retrying until `timeout_s` (the daemon may still
  /// be binding).  Throws std::runtime_error on timeout.
  static AdminClient connect(const std::string& host, std::uint16_t port,
                             double timeout_s = 5.0);

  /// Sends one command line and blocks up to `timeout_s` for the one-line
  /// JSON reply (without the trailing newline).  Throws std::runtime_error
  /// on timeout or peer close.  The connection stays open for the next
  /// request -- olev_top polls on a single connection.
  std::string request(std::string_view command, double timeout_s = 5.0);

 private:
  explicit AdminClient(Socket socket);

  Socket socket_;
  std::string inbuf_;  ///< bytes past the last returned line
};

}  // namespace olev::svc
