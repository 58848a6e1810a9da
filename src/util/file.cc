#include "util/file.h"

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/str.h"

namespace lc {

StatusOr<int64_t> FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::NotFound(Format("stat(%s): %s", path.c_str(),
                                   std::strerror(errno)));
  }
  return static_cast<int64_t>(st.st_size);
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound(Format("open(%s): %s", path.c_str(),
                                   std::strerror(errno)));
  }
  std::string content;
  char buffer[1 << 16];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    content.append(buffer, got);
  }
  const bool had_error = std::ferror(file) != 0;
  std::fclose(file);
  if (had_error) {
    return Status::IoError(Format("read(%s) failed", path.c_str()));
  }
  return content;
}

Status WriteStringToFile(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError(Format("open(%s) for write: %s", path.c_str(),
                                  std::strerror(errno)));
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), file);
  const bool flush_failed = std::fclose(file) != 0;
  if (written != content.size() || flush_failed) {
    return Status::IoError(Format("write(%s) failed", path.c_str()));
  }
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IoError(Format("unlink(%s): %s", path.c_str(),
                                  std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace lc
