#include "seq/order_log.h"

#include <utility>

#include "common/bytes.h"
#include "common/strutil.h"
#include "ode/snapshot_codec.h"

namespace ode {
namespace seq {

Status EncodeOrderPayload(std::string* payload, const SeqEvent& ev) {
  if (ev.event.method_name.size() > wal::kMaxWalMethodLen ||
      ev.event.time_key.size() > wal::kMaxWalMethodLen ||
      ev.event.args.size() > wal::kMaxWalArgs ||
      ev.syms.size() > 0xffff) {
    return Status::InvalidArgument("order record exceeds codec caps");
  }
  PutU32(payload, ev.lane);
  PutU64(payload, ev.lane_seq);
  PutU32(payload, ev.class_id);
  PutU64(payload, ev.oid.id);
  PutU8(payload, static_cast<uint8_t>(ev.event.kind));
  PutU8(payload, static_cast<uint8_t>(ev.event.qualifier));
  PutU16(payload, static_cast<uint16_t>(ev.event.method_name.size()));
  payload->append(ev.event.method_name);
  PutU16(payload, static_cast<uint16_t>(ev.event.time_key.size()));
  payload->append(ev.event.time_key);
  PutU64(payload, ev.event.txn);
  PutU64(payload, static_cast<uint64_t>(ev.event.time));
  PutU64(payload, ev.event.seq);
  PutU16(payload, static_cast<uint16_t>(ev.syms.size()));
  for (const SeqSym& s : ev.syms) {
    PutU32(payload, static_cast<uint32_t>(s.trigger_idx));
    PutU32(payload, static_cast<uint32_t>(s.symbol));
  }
  PutU16(payload, static_cast<uint16_t>(ev.event.args.size()));
  for (const EventArg& arg : ev.event.args) {
    if (arg.name.size() > wal::kMaxWalMethodLen) {
      return Status::InvalidArgument("order record arg name exceeds cap");
    }
    PutU16(payload, static_cast<uint16_t>(arg.name.size()));
    payload->append(arg.name);
    std::string text = EncodeSnapshotValue(arg.value);
    if (text.size() > 0xffff) {
      return Status::InvalidArgument("order record arg value exceeds cap");
    }
    PutU16(payload, static_cast<uint16_t>(text.size()));
    payload->append(text);
  }
  if (payload->size() > wal::kMaxWalPayload) {
    return Status::InvalidArgument("order record exceeds payload cap");
  }
  return Status::OK();
}

bool DecodeOrderPayload(std::string_view payload, SeqEvent* out,
                        std::string* error) {
  ByteReader in(payload.data(), payload.size());
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  uint8_t u8 = 0;
  uint16_t u16 = 0;

  in.ReadU32(&u32);
  out->lane = u32;
  in.ReadU64(&out->lane_seq);
  in.ReadU32(&u32);
  out->class_id = u32;
  in.ReadU64(&u64);
  out->oid = Oid{u64};
  in.ReadU8(&u8);
  out->event.kind = static_cast<BasicEventKind>(u8);
  in.ReadU8(&u8);
  out->event.qualifier = static_cast<EventQualifier>(u8);
  in.ReadU16(&u16);
  in.ReadBytes(u16, &out->event.method_name);
  in.ReadU16(&u16);
  in.ReadBytes(u16, &out->event.time_key);
  in.ReadU64(&out->event.txn);
  in.ReadU64(&u64);
  out->event.time = static_cast<TimeMs>(u64);
  in.ReadU64(&out->event.seq);
  out->event.object = out->oid;
  uint16_t nsyms = 0;
  in.ReadU16(&nsyms);
  if (!in.ok()) {
    *error = "order record payload truncated";
    return false;
  }
  out->syms.clear();
  out->syms.reserve(nsyms);
  for (uint16_t i = 0; i < nsyms; ++i) {
    uint32_t idx = 0;
    uint32_t sym = 0;
    if (!in.ReadU32(&idx) || !in.ReadU32(&sym)) {
      *error = "order record symbol list truncated";
      return false;
    }
    out->syms.push_back(SeqSym{static_cast<int32_t>(idx),
                               static_cast<int32_t>(sym)});
  }
  uint16_t argc = 0;
  if (!in.ReadU16(&argc) || argc > wal::kMaxWalArgs) {
    *error = "order record argument count invalid";
    return false;
  }
  out->event.args.clear();
  out->event.args.reserve(argc);
  for (uint16_t i = 0; i < argc; ++i) {
    EventArg arg;
    std::string text;
    if (!in.ReadU16(&u16) || !in.ReadBytes(u16, &arg.name) ||
        !in.ReadU16(&u16) || !in.ReadBytes(u16, &text)) {
      *error = "order record argument truncated";
      return false;
    }
    Result<Value> v = DecodeSnapshotValue(text);
    if (!v.ok()) {
      *error = StrFormat("order record argument value: %s",
                         v.status().message().c_str());
      return false;
    }
    arg.value = std::move(*v);
    out->event.args.push_back(std::move(arg));
  }
  if (!in.exhausted()) {
    *error = "order record has trailing payload bytes";
    return false;
  }
  return true;
}

std::string OrderLogPath(const std::string& dir) {
  return StrFormat("%s/seqorder.log", dir.c_str());
}

Result<OrderLogReadResult> ReadOrderLog(const std::string& path) {
  OrderLogReadResult result;
  Status s = wal::ScanLogFile(
      path, &result, [&](std::string_view payload, std::string* error) {
        SeqEvent ev;
        if (!DecodeOrderPayload(payload, &ev, error)) return false;
        result.records.push_back(std::move(ev));
        return true;
      });
  // Absent file: nothing sequenced yet.
  if (s.code() == StatusCode::kNotFound) return OrderLogReadResult{};
  ODE_RETURN_IF_ERROR(s);
  return result;
}

}  // namespace seq
}  // namespace ode
