#include "line_client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

#include "util/str.h"

namespace perfbench {

namespace {

lc::Status Errno(const char* what) {
  return lc::Status::IoError(lc::Format("%s: %s", what, std::strerror(errno)));
}

}  // namespace

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

lc::Status LineClient::Connect(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return lc::Status::InvalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.data(), path.size());
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) return Errno("socket");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Errno("connect");
  }
  return lc::Status::OK();
}

lc::Status LineClient::Send(std::string_view bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Errno("send");
    done += static_cast<size_t>(n);
  }
  return lc::Status::OK();
}

lc::Status LineClient::ReadLines(std::vector<std::string>* lines,
                                 int64_t timeout_ns) {
  if (timeout_ns >= 0) {
    pollfd entry{fd_, POLLIN, 0};
    timespec timeout{static_cast<time_t>(timeout_ns / 1000000000),
                     static_cast<long>(timeout_ns % 1000000000)};
    const int ready = ::ppoll(&entry, 1, &timeout, nullptr);
    if (ready < 0 && errno != EINTR) return Errno("ppoll");
    if (ready <= 0) return lc::Status::OK();
  }
  char chunk[16384];
  ssize_t n = 0;
  do {
    n = ::recv(fd_, chunk, sizeof(chunk), 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return Errno("recv");
  if (n == 0) return lc::Status::IoError("server closed the connection");
  buffer_.append(chunk, static_cast<size_t>(n));
  size_t begin = 0;
  for (size_t newline = buffer_.find('\n'); newline != std::string::npos;
       newline = buffer_.find('\n', begin)) {
    lines->emplace_back(buffer_, begin, newline - begin);
    begin = newline + 1;
  }
  buffer_.erase(0, begin);
  return lc::Status::OK();
}

bool ParseEstimate(std::string_view line, double* estimate) {
  if (!lc::StartsWith(line, "EST ")) return false;
  std::string_view value = line.substr(4);
  value = value.substr(0, value.find(' '));
  return lc::ParseDouble(value, estimate).ok();
}

}  // namespace perfbench
