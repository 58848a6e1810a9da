// A unix-socket client for the estimator server's line protocol
// (serve/protocol.h): writes request lines, reads response lines.

#ifndef PERFBENCH_LINE_CLIENT_H_
#define PERFBENCH_LINE_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace perfbench {

class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  lc::Status Connect(const std::string& path);

  /// Writes all of `bytes`.
  lc::Status Send(std::string_view bytes);

  /// Appends every complete response line that arrives to `lines`. Waits
  /// up to `timeout_ns` for the first bytes (negative = until some arrive)
  /// and returns OK with nothing appended on timeout. EOF is an error.
  lc::Status ReadLines(std::vector<std::string>* lines,
                       int64_t timeout_ns = -1);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Extracts the estimate from an "EST <value> us=... cache=..." line; false
/// for any other line (ERR, admin, malformed).
bool ParseEstimate(std::string_view line, double* estimate);

}  // namespace perfbench

#endif  // PERFBENCH_LINE_CLIENT_H_
