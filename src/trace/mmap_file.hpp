// Read-only memory-mapped file.
//
// Trace-scale streaming replay ingests multi-gigabyte on-disk traces; a
// private read-only mapping lets the line scanner walk the bytes with zero
// copies and leaves residency decisions to the page cache (memory stays
// O(working set), not O(file)). A 0-byte file maps to an empty view
// without touching mmap (POSIX rejects zero-length mappings).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace flashqos::trace {

class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept { swap(other); }
  MappedFile& operator=(MappedFile&& other) noexcept {
    if (this != &other) {
      unmap();
      swap(other);
    }
    return *this;
  }
  ~MappedFile() { unmap(); }

  /// Map `path` read-only. Returns false (and records error()) when the
  /// file cannot be opened or mapped; an empty file opens successfully
  /// with size() == 0.
  [[nodiscard]] bool open(const std::string& path);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const char* data() const noexcept { return data_; }
  [[nodiscard]] std::string_view view() const noexcept {
    return {data_, size_};
  }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  void swap(MappedFile& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(error_, other.error_);
  }
  void unmap() noexcept;

  const char* data_ = nullptr;
  std::size_t size_ = 0;
  std::string error_;
};

}  // namespace flashqos::trace
