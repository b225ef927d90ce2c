#include "base/file.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <fstream>

namespace condtd {

namespace {

Status CheckRegular(const struct stat& st, const std::string& path) {
  if (S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("is a directory: " + path);
  }
  if (!S_ISREG(st.st_mode)) {
    return Status::InvalidArgument(
        "not a regular file (fifo/device/socket): " + path);
  }
  return Status::OK();
}

}  // namespace

Status OpenRegularFile(const std::string& path, int* fd, size_t* size) {
  *fd = -1;
  // Classify before opening: opening a device can have effects of its
  // own, and opening then closing a FIFO releases a writer blocked on
  // it. The daemon receives arbitrary client paths, so anything but a
  // regular file must be refused without ever being opened.
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::NotFound("cannot open file: " + path);
  }
  CONDTD_RETURN_IF_ERROR(CheckRegular(st, path));
  // The path can be swapped between the stat and the open, so the
  // descriptor is classified again. O_NONBLOCK keeps such a swapped-in
  // FIFO from hanging the open and O_NOCTTY a swapped-in terminal from
  // becoming the controlling one; for regular files both are no-ops.
  *fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_NOCTTY | O_CLOEXEC);
  if (*fd < 0) {
    return Status::NotFound("cannot open file: " + path);
  }
  Status status = ::fstat(*fd, &st) == 0
                      ? CheckRegular(st, path)
                      : Status::InvalidArgument("error while reading: " +
                                                path);
  if (!status.ok()) {
    ::close(*fd);
    *fd = -1;
    return status;
  }
  *size = static_cast<size_t>(st.st_size);
  return Status::OK();
}

Result<std::string> ReadOpenFile(int fd, size_t size,
                                 const std::string& path) {
  std::string content;
  if (size == 0) {
    char buffer[1 << 16];
    for (;;) {
      ssize_t got = ::read(fd, buffer, sizeof(buffer));
      if (got < 0 && errno == EINTR) continue;
      if (got < 0) {
        return Status::InvalidArgument("error while reading: " + path);
      }
      if (got == 0) return content;
      content.append(buffer, static_cast<size_t>(got));
    }
  }
  content.resize(size);
  size_t done = 0;
  while (done < size) {
    ssize_t got = ::read(fd, content.data() + done, size - done);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      return Status::InvalidArgument("error while reading: " + path);
    }
    done += static_cast<size_t>(got);
  }
  return content;
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = -1;
  size_t size = 0;
  CONDTD_RETURN_IF_ERROR(OpenRegularFile(path, &fd, &size));
  Result<std::string> content = ReadOpenFile(fd, size, path);
  ::close(fd);
  return content;
}

Status WriteStringToFile(const std::string& path,
                         const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open file for writing: " + path);
  }
  out << content;
  out.flush();
  if (!out) {
    return Status::InvalidArgument("error while writing: " + path);
  }
  return Status::OK();
}

Status EnsureDirectory(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("empty directory path");
  }
  // Walk the components left to right, creating what is missing.
  size_t pos = 0;
  while (pos != std::string::npos) {
    pos = path.find('/', pos + 1);
    std::string prefix = path.substr(0, pos);
    if (prefix.empty() || prefix == "/" || prefix == ".") continue;
    if (::mkdir(prefix.c_str(), 0777) == 0) continue;
    struct stat st;
    if (::stat(prefix.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
      return Status::InvalidArgument("cannot create directory: " + prefix);
    }
  }
  return Status::OK();
}

}  // namespace condtd
