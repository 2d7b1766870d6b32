// Byte-buffer plumbing shared by the binary formats (model file, checkpoint):
// an append-only writer helper, a bounds-checked read cursor, and a
// whole-file read. Formats are little-endian, same-architecture: fields are
// copied as their in-memory bytes.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace compass::util {

/// A decoder ran out of bytes or met a value its format forbids.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

template <typename T>
void append_pod(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Bounds-checked reader over an in-memory buffer. Every read names what it
/// reads, so a short buffer surfaces as "truncated reading <what>".
class ByteCursor {
 public:
  explicit ByteCursor(std::string_view bytes) noexcept : bytes_(bytes) {}

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  /// Consume the next `n` bytes; throws DecodeError if fewer remain.
  std::string_view take(std::size_t n, const char* what) {
    if (remaining() < n) {
      throw DecodeError(std::string("truncated reading ") + what);
    }
    const std::string_view v = bytes_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  /// Consume `n` bytes into `dst` (one memcpy).
  void copy(void* dst, std::size_t n, const char* what) {
    const std::string_view v = take(n, what);
    if (n != 0) std::memcpy(dst, v.data(), n);
  }

  template <typename T>
  T read(const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    copy(&v, sizeof(T), what);
    return v;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Read a whole file into `out` with one fstat-sized read. Returns false
/// with errno set on any open/stat/read failure.
bool read_file(const std::string& path, std::string& out);

}  // namespace compass::util
