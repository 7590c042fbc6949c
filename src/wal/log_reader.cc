#include "wal/log_reader.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/strutil.h"

namespace ode {
namespace wal {

Status ScanLogFile(
    const std::string& path, LogScan* scan,
    const std::function<bool(std::string_view payload, std::string* error)>&
        decode) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();

  scan->total_bytes = bytes.size();
  size_t pos = 0;
  while (pos < bytes.size()) {
    std::string_view payload;
    size_t consumed = 0;
    std::string error;
    DecodeStatus s = DecodeFrame(bytes.data() + pos, bytes.size() - pos,
                                 &payload, &consumed, &error);
    if (s == DecodeStatus::kRecord && decode(payload, &error)) {
      pos += consumed;
      continue;
    }
    scan->torn = true;
    scan->torn_error =
        s == DecodeStatus::kNeedMore
            ? StrFormat("torn record at offset %zu (file ends mid-record)",
                        pos)
            : StrFormat("corrupt record at offset %zu: %s", pos,
                        error.c_str());
    break;
  }
  scan->valid_bytes = pos;
  return Status::OK();
}

Result<LogReadResult> ReadLogFile(const std::string& path) {
  LogReadResult result;
  ODE_RETURN_IF_ERROR(ScanLogFile(
      path, &result, [&](std::string_view payload, std::string* error) {
        WalRecord record;
        if (!DecodeRecordPayload(payload, &record, error)) return false;
        result.records.push_back(std::move(record));
        return true;
      }));
  return result;
}

Status TruncateLogFile(const std::string& path, uint64_t to_bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound(
        StrFormat("open '%s': %s", path.c_str(), std::strerror(errno)));
  }
  Status status = Status::OK();
  if (::ftruncate(fd, static_cast<off_t>(to_bytes)) != 0 ||
      ::fsync(fd) != 0) {
    status = Status::Internal(
        StrFormat("truncate '%s': %s", path.c_str(), std::strerror(errno)));
  }
  ::close(fd);
  return status;
}

std::vector<size_t> ListShardLogs(const std::string& dir) {
  std::vector<size_t> indices;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return indices;
  while (dirent* entry = ::readdir(d)) {
    std::string_view name(entry->d_name);
    constexpr std::string_view kPrefix = "shard-";
    constexpr std::string_view kSuffix = ".wal";
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        name.substr(0, kPrefix.size()) != kPrefix ||
        name.substr(name.size() - kSuffix.size()) != kSuffix) {
      continue;
    }
    std::string_view digits =
        name.substr(kPrefix.size(),
                    name.size() - kPrefix.size() - kSuffix.size());
    size_t index = 0;
    bool numeric = !digits.empty();
    for (char c : digits) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      index = index * 10 + static_cast<size_t>(c - '0');
    }
    if (numeric) indices.push_back(index);
  }
  ::closedir(d);
  std::sort(indices.begin(), indices.end());
  return indices;
}

}  // namespace wal
}  // namespace ode
