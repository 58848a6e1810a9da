// POSIX file helpers (the project avoids <filesystem> per the style guide).

#ifndef LC_UTIL_FILE_H_
#define LC_UTIL_FILE_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace lc {

/// File size in bytes; NotFound if missing.
StatusOr<int64_t> FileSize(const std::string& path);

/// Reads the whole file into a string.
StatusOr<std::string> ReadFileToString(const std::string& path);

/// Writes (truncating) the whole string to the file.
Status WriteStringToFile(const std::string& path, const std::string& content);

/// Removes a file if present; OK if it did not exist.
Status RemoveFile(const std::string& path);

}  // namespace lc

#endif  // LC_UTIL_FILE_H_
