#include "util/bytes.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace compass::util {

bool read_file(const std::string& path, std::string& out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return false;
  }
  out.resize(static_cast<std::size_t>(st.st_size));
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::read(fd, out.data() + off, out.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // n == 0: the file shrank under us; report it as an I/O error rather
      // than hand the decoder a zero-padded tail.
      const int saved = n < 0 ? errno : EIO;
      ::close(fd);
      errno = saved;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return true;
}

}  // namespace compass::util
