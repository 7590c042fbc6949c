#ifndef ODE_SEQ_ORDER_LOG_H_
#define ODE_SEQ_ORDER_LOG_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "seq/seq_event.h"
#include "wal/log_reader.h"

namespace ode {
namespace seq {

/// Durable record of the sequencer's merged order: one framed entry per
/// applied SeqEvent, written *behind* the apply (logged ⊆ applied, so a
/// crash loses at most the applied-but-unlogged suffix, which shard-WAL
/// replay re-derives and re-applies — see docs/SEQUENCER.md#durability).
/// The file is written by a wal::LogWriter, so it shares the WAL's
/// framing (u32 len | u32 crc32 | payload) and fsync policies; the payload
/// carries (lane, lane_seq, class, oid), the full posted event, and the
/// publish-time classification so recovery replays the exact symbols
/// without re-evaluating masks against post-recovery state.
///
/// Appends the payload to *out; kInvalidArgument when the event exceeds
/// the codec caps (at most wal::kMaxWalPayload bytes).
Status EncodeOrderPayload(std::string* out, const SeqEvent& event);
/// False (with *error set) on a malformed payload.
bool DecodeOrderPayload(std::string_view payload, SeqEvent* out,
                        std::string* error);

/// The file holding the sequencer order log under a WAL directory. The
/// ".log" suffix keeps it invisible to wal::ListShardLogs ("shard-*.wal").
std::string OrderLogPath(const std::string& dir);

struct OrderLogReadResult : wal::LogScan {
  std::vector<SeqEvent> records;
};

/// Reads every valid record; a missing file yields an empty result. Torn
/// or corrupt tails are tolerated and reported through the same frame loop
/// as wal::ReadLogFile (the order log is truncate-on-checkpoint, so
/// corruption mid-file is a torn tail from the crash, not silent history
/// loss).
Result<OrderLogReadResult> ReadOrderLog(const std::string& path);

}  // namespace seq
}  // namespace ode

#endif  // ODE_SEQ_ORDER_LOG_H_
