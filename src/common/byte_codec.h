#ifndef HYRISE_NV_COMMON_BYTE_CODEC_H_
#define HYRISE_NV_COMMON_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace hyrise_nv {

/// The byte codec of every variable-length format the engine writes: log
/// records, checkpoints, schema blobs and wire frames (DESIGN.md §4.5).
/// Integers are little-endian (the host order; the engine targets
/// little-endian machines only). A string is [u32 length][bytes].

/// Append-only encoder over a byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U16(uint16_t v) { Raw(&v, sizeof(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Raw(const void* data, size_t len) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), bytes, bytes + len);
  }

 private:
  std::vector<uint8_t>* out_;
};

/// Bounds-checked decoder. Any out-of-bounds read latches the error flag
/// and returns zero values; callers check ok() once at the end instead
/// of after every field. Never reads past the buffer.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  uint8_t U8() { return Fixed<uint8_t>(); }
  uint16_t U16() { return Fixed<uint16_t>(); }
  uint32_t U32() { return Fixed<uint32_t>(); }
  uint64_t U64() { return Fixed<uint64_t>(); }
  double F64() { return Fixed<double>(); }
  std::string Str() {
    const uint32_t n = U32();
    const uint8_t* bytes = Bytes(n);
    if (bytes == nullptr) return std::string();
    return std::string(reinterpret_cast<const char*>(bytes), n);
  }
  /// Consumes the next `n` bytes and points at them; nullptr (and the
  /// error latched) when fewer are left.
  const uint8_t* Bytes(size_t n) {
    if (error_ || len_ - pos_ < n) {
      error_ = true;
      return nullptr;
    }
    const uint8_t* at = data_ + pos_;
    pos_ += n;
    return at;
  }

  /// The one rule for a count read from the bytes: `count` items of at
  /// least `item_bytes` each must fit in the bytes left. A count that
  /// does not latches the error and reads as 0, so no count can size an
  /// allocation past the input. Divides, so no count overflows the check.
  uint64_t Count(uint64_t count, size_t item_bytes = 1) {
    if (error_ || count > remaining() / item_bytes) {
      error_ = true;
      return 0;
    }
    return count;
  }

  /// Latches the error for a value the caller finds malformed.
  void Fail() { error_ = true; }
  bool ok() const { return !error_; }
  /// True when the whole buffer was consumed and no read overran.
  bool Exhausted() const { return ok() && pos_ == len_; }
  size_t remaining() const { return len_ - pos_; }

 private:
  template <typename T>
  T Fixed() {
    T v{};
    if (const uint8_t* bytes = Bytes(sizeof(T))) {
      std::memcpy(&v, bytes, sizeof(T));
    }
    return v;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool error_ = false;
};

}  // namespace hyrise_nv

#endif  // HYRISE_NV_COMMON_BYTE_CODEC_H_
