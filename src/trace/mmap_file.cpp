#include "trace/mmap_file.hpp"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace flashqos::trace {

bool MappedFile::open(const std::string& path) {
  unmap();
  error_.clear();
  const int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  if (fd < 0) {
    error_ = path + ": " + std::strerror(errno);
    return false;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    error_ = path + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    // POSIX rejects zero-length mappings; an empty trace file is simply an
    // empty view.
    ::close(fd);
    return true;
  }
  void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (p == MAP_FAILED) {
    error_ = path + ": mmap: " + std::strerror(errno);
    return false;
  }
  data_ = static_cast<const char*>(p);
  size_ = size;
  return true;
}

void MappedFile::unmap() noexcept {
  if (data_ != nullptr && size_ > 0) {
    ::munmap(const_cast<char*>(data_), size_);  // NOLINT(cppcoreguidelines-pro-type-const-cast)
  }
  data_ = nullptr;
  size_ = 0;
}

}  // namespace flashqos::trace
