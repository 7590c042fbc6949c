#include "wal/log_format.h"

#include <algorithm>
#include <array>

#include "common/bytes.h"
#include "common/strutil.h"
#include "ode/snapshot_codec.h"

namespace ode {
namespace wal {

namespace {

/// Table-driven CRC-32 (IEEE, reflected), table built once at startup.
const std::array<uint32_t, 256>& CrcTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const auto& table = CrcTable();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways: return "always";
    case FsyncPolicy::kEveryN: return "every-n";
    case FsyncPolicy::kEveryMs: return "every-ms";
    case FsyncPolicy::kNever: return "never";
  }
  return "?";
}

void AppendFrame(std::string* out, std::string_view payload) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Crc32(payload.data(), payload.size()));
  out->append(payload);
}

DecodeStatus DecodeFrame(const char* data, size_t size,
                         std::string_view* payload, size_t* consumed,
                         std::string* error) {
  *consumed = 0;
  if (size < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  ByteReader header(data, kFrameHeaderBytes);
  uint32_t payload_len = 0, declared_crc = 0;
  header.ReadU32(&payload_len);
  header.ReadU32(&declared_crc);
  if (payload_len > kMaxWalPayload) {
    if (error != nullptr) {
      *error = StrFormat("record length %u exceeds limit %zu", payload_len,
                         kMaxWalPayload);
    }
    return DecodeStatus::kCorrupt;
  }
  if (size < kFrameHeaderBytes + static_cast<size_t>(payload_len)) {
    return DecodeStatus::kNeedMore;
  }
  *payload = std::string_view(data + kFrameHeaderBytes, payload_len);
  if (Crc32(payload->data(), payload->size()) != declared_crc) {
    if (error != nullptr) *error = "record CRC mismatch";
    return DecodeStatus::kCorrupt;
  }
  *consumed = kFrameHeaderBytes + static_cast<size_t>(payload_len);
  return DecodeStatus::kRecord;
}

Status EncodeRecordPayload(std::string* out, const WalRecord& record) {
  if (record.method.size() > kMaxWalMethodLen) {
    return Status::InvalidArgument(
        StrFormat("wal record method is %zu bytes, limit %zu",
                  record.method.size(), kMaxWalMethodLen));
  }
  if (record.args.size() > kMaxWalArgs) {
    return Status::InvalidArgument(StrFormat(
        "wal record has %zu args, limit %zu", record.args.size(),
        kMaxWalArgs));
  }
  if (record.producer_id.size() > kMaxWalIdentityLen) {
    return Status::InvalidArgument(
        StrFormat("wal producer id is %zu bytes, limit %zu",
                  record.producer_id.size(), kMaxWalIdentityLen));
  }
  const size_t start = out->size();
  PutU64(out, record.lsn);
  PutU64(out, record.oid.id);
  PutU64(out, record.producer_seq);
  PutU16(out, static_cast<uint16_t>(record.producer_id.size()));
  out->append(record.producer_id);
  PutU16(out, static_cast<uint16_t>(record.method.size()));
  out->append(record.method);
  PutU16(out, static_cast<uint16_t>(record.args.size()));
  for (const Value& v : record.args) {
    std::string text = EncodeSnapshotValue(v);
    if (text.size() > UINT16_MAX) {
      return Status::InvalidArgument("wal record arg value too large");
    }
    PutU16(out, static_cast<uint16_t>(text.size()));
    out->append(text);
  }
  const size_t payload_size = out->size() - start;
  if (payload_size > kMaxWalPayload) {
    return Status::InvalidArgument(
        StrFormat("wal record payload is %zu bytes, limit %zu",
                  payload_size, kMaxWalPayload));
  }
  return Status::OK();
}

bool DecodeRecordPayload(std::string_view payload, WalRecord* out,
                         std::string* error) {
  *out = WalRecord{};
  ByteReader in(payload.data(), payload.size());
  uint64_t oid = 0;
  uint16_t id_len = 0, method_len = 0, argc = 0;
  bool ok = in.ReadU64(&out->lsn) && in.ReadU64(&oid) &&
            in.ReadU64(&out->producer_seq) && in.ReadU16(&id_len);
  if (ok && id_len > kMaxWalIdentityLen) ok = false;
  ok = ok && in.ReadBytes(id_len, &out->producer_id) &&
       in.ReadU16(&method_len);
  if (ok && method_len > kMaxWalMethodLen) ok = false;
  ok = ok && in.ReadBytes(method_len, &out->method) && in.ReadU16(&argc);
  if (ok && argc > kMaxWalArgs) ok = false;
  if (ok) {
    out->oid = Oid{oid};
    out->args.reserve(argc);
    for (uint16_t i = 0; ok && i < argc; ++i) {
      uint16_t len = 0;
      std::string text;
      ok = in.ReadU16(&len) && in.ReadBytes(len, &text);
      if (!ok) break;
      Result<Value> v = DecodeSnapshotValue(text);
      if (!v.ok()) {
        ok = false;
        break;
      }
      out->args.push_back(std::move(*v));
    }
  }
  if (!ok || !in.ok() || !in.exhausted()) {
    // The CRC matched, so this is a writer bug or a deliberately crafted
    // payload rather than disk rot — still corrupt from the reader's view.
    if (error != nullptr) *error = "record payload malformed";
    return false;
  }
  return true;
}

Status AppendRecord(std::string* out, const WalRecord& record) {
  std::string payload;
  ODE_RETURN_IF_ERROR(EncodeRecordPayload(&payload, record));
  AppendFrame(out, payload);
  return Status::OK();
}

DecodeStatus DecodeRecord(const char* data, size_t size, WalRecord* out,
                          size_t* consumed, std::string* error) {
  std::string_view payload;
  DecodeStatus s = DecodeFrame(data, size, &payload, consumed, error);
  if (s != DecodeStatus::kRecord) return s;
  if (!DecodeRecordPayload(payload, out, error)) {
    *consumed = 0;
    return DecodeStatus::kCorrupt;
  }
  return DecodeStatus::kRecord;
}

void SeqSet::Add(uint64_t seq) {
  // First run with hi >= seq - 1 (the run `seq` joins or extends).
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), seq,
      [](const std::pair<uint64_t, uint64_t>& run, uint64_t s) {
        return run.second + 1 < s && run.second != UINT64_MAX;
      });
  if (it == runs_.end() || seq + 1 < it->first) {
    runs_.insert(it, {seq, seq});
    return;
  }
  if (seq >= it->first && seq <= it->second) return;  // Already present.
  if (seq + 1 == it->first) {
    it->first = seq;  // Extend left; cannot touch the previous run (else
                      // lower_bound would have landed there).
    return;
  }
  // seq == it->second + 1: extend right, then merge with the next run if
  // the gap closed.
  it->second = seq;
  auto next = it + 1;
  if (next != runs_.end() && it->second + 1 == next->first) {
    it->second = next->second;
    runs_.erase(next);
  }
}

bool SeqSet::Contains(uint64_t seq) const {
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), seq,
      [](const std::pair<uint64_t, uint64_t>& run, uint64_t s) {
        return run.second < s;
      });
  return it != runs_.end() && seq >= it->first;
}

uint64_t SeqSet::count() const {
  uint64_t n = 0;
  for (const auto& [lo, hi] : runs_) n += hi - lo + 1;
  return n;
}

std::string SeqSet::ToString() const {
  std::string out;
  for (const auto& [lo, hi] : runs_) {
    if (!out.empty()) out += ',';
    if (lo == hi) {
      out += StrFormat("%llu", static_cast<unsigned long long>(lo));
    } else {
      out += StrFormat("%llu-%llu", static_cast<unsigned long long>(lo),
                       static_cast<unsigned long long>(hi));
    }
  }
  return out;
}

Result<SeqSet> SeqSet::Parse(std::string_view text) {
  SeqSet set;
  uint64_t prev_hi = 0;
  bool first = true;
  for (std::string_view part : Split(text, ',')) {
    if (part.empty()) continue;
    uint64_t lo = 0, hi = 0;
    size_t dash = part.find('-');
    auto parse_u64 = [](std::string_view s, uint64_t* out) {
      if (s.empty()) return false;
      uint64_t v = 0;
      for (char c : s) {
        if (c < '0' || c > '9') return false;
        if (v > (UINT64_MAX - static_cast<uint64_t>(c - '0')) / 10) {
          return false;
        }
        v = v * 10 + static_cast<uint64_t>(c - '0');
      }
      *out = v;
      return true;
    };
    bool ok = dash == std::string_view::npos
                  ? parse_u64(part, &lo) && (hi = lo, true)
                  : parse_u64(part.substr(0, dash), &lo) &&
                        parse_u64(part.substr(dash + 1), &hi);
    if (!ok || hi < lo || (!first && lo <= prev_hi + 1 && prev_hi != 0)) {
      return Status::InvalidArgument(
          StrFormat("bad seq set run '%.*s'", static_cast<int>(part.size()),
                    part.data()));
    }
    set.runs_.emplace_back(lo, hi);
    prev_hi = hi;
    first = false;
  }
  return set;
}

}  // namespace wal
}  // namespace ode
