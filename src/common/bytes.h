#ifndef ODE_COMMON_BYTES_H_
#define ODE_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace ode {

// Little-endian byte codec shared by every binary format in the project:
// the network wire frames, the shard WAL and the sequencer order log.

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU16(std::string* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

inline void PutU32(std::string* out, uint32_t v) {
  PutU16(out, static_cast<uint16_t>(v));
  PutU16(out, static_cast<uint16_t>(v >> 16));
}

inline void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

/// Bounds-checked sequential reader. Every Read* returns false (and reads
/// nothing) once it would pass the end, and latches ok() false; callers
/// may chain reads and check ok() once at the end of a decode.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > size_) return Fail();
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool ReadU16(uint16_t* v) {
    uint8_t lo, hi;
    if (!ReadU8(&lo) || !ReadU8(&hi)) return false;
    *v = static_cast<uint16_t>(lo | (uint16_t{hi} << 8));
    return true;
  }
  bool ReadU32(uint32_t* v) {
    uint16_t lo, hi;
    if (!ReadU16(&lo) || !ReadU16(&hi)) return false;
    *v = lo | (uint32_t{hi} << 16);
    return true;
  }
  bool ReadU64(uint64_t* v) {
    uint32_t lo, hi;
    if (!ReadU32(&lo) || !ReadU32(&hi)) return false;
    *v = lo | (uint64_t{hi} << 32);
    return true;
  }
  bool ReadBytes(size_t n, std::string* v) {
    if (n > size_ || pos_ > size_ - n) return Fail();
    v->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool ok() const { return ok_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  bool Fail() {
    ok_ = false;
    return false;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ode

#endif  // ODE_COMMON_BYTES_H_
