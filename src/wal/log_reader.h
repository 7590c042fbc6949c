#ifndef ODE_WAL_LOG_READER_H_
#define ODE_WAL_LOG_READER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "wal/log_format.h"

namespace ode {
namespace wal {

/// What scanning one framed log file found. The records are the longest
/// clean prefix: every frame up to `valid_bytes` passed its CRC and its
/// payload decoded. `torn` is set when trailing bytes after the prefix
/// failed — a write cut mid-record by a crash, or rot flagged by the CRC.
/// Torn tails are expected after a kill; recovery reports and discards them.
struct LogScan {
  uint64_t valid_bytes = 0;
  uint64_t total_bytes = 0;
  bool torn = false;
  std::string torn_error;

  uint64_t torn_bytes() const { return total_bytes - valid_bytes; }
};

/// The frame-reading loop behind every log reader: reads `path` and hands
/// each CRC-valid payload, in file order, to `decode`, which returns false
/// (with its error set) to reject the payload as corrupt. Stops at the
/// first torn or corrupt frame and records it in *scan. kNotFound when the
/// file is missing; a torn tail is NOT an error.
Status ScanLogFile(
    const std::string& path, LogScan* scan,
    const std::function<bool(std::string_view payload, std::string* error)>&
        decode);

/// One shard log file, fully read and validated.
struct LogReadResult : LogScan {
  std::vector<WalRecord> records;

  /// Highest lsn in the clean prefix (0 when empty).
  uint64_t last_lsn() const {
    return records.empty() ? 0 : records.back().lsn;
  }
};

/// Reads and validates one shard log file. kNotFound when the file is
/// missing; a torn tail is NOT an error (see LogScan).
Result<LogReadResult> ReadLogFile(const std::string& path);

/// Cuts `path` down to `to_bytes` (tail repair for ode-waldump --repair
/// and tests). Fsyncs the result.
Status TruncateLogFile(const std::string& path, uint64_t to_bytes);

/// Indices of every shard-<i>.wal present under `dir`, sorted ascending.
/// An unreadable or absent directory yields an empty list.
std::vector<size_t> ListShardLogs(const std::string& dir);

}  // namespace wal
}  // namespace ode

#endif  // ODE_WAL_LOG_READER_H_
