#include "io/input_buffer.h"

#include <unistd.h>

#include <utility>

#include "base/file.h"
#include "obs/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#define CONDTD_HAVE_MMAP 1
#include <sys/mman.h>
#endif

namespace condtd {

InputBuffer::~InputBuffer() { Release(); }

InputBuffer::InputBuffer(InputBuffer&& other) noexcept
    : view_(other.view_),
      owned_(std::move(other.owned_)),
      mapped_(other.mapped_),
      mapped_bytes_(other.mapped_bytes_) {
  other.mapped_ = nullptr;
  other.mapped_bytes_ = 0;
  other.view_ = std::string_view();
  // Re-anchor owned views: a small-string move copies bytes (SSO)
  // instead of transferring the heap buffer, so the old view may
  // dangle.
  if (mapped_ == nullptr) view_ = owned_;
}

InputBuffer& InputBuffer::operator=(InputBuffer&& other) noexcept {
  if (this == &other) return *this;
  Release();
  view_ = other.view_;
  owned_ = std::move(other.owned_);
  mapped_ = other.mapped_;
  mapped_bytes_ = other.mapped_bytes_;
  other.mapped_ = nullptr;
  other.mapped_bytes_ = 0;
  other.view_ = std::string_view();
  if (mapped_ == nullptr) view_ = owned_;
  return *this;
}

void InputBuffer::Release() {
#ifdef CONDTD_HAVE_MMAP
  if (mapped_ != nullptr) {
    ::munmap(mapped_, mapped_bytes_);
    mapped_ = nullptr;
    mapped_bytes_ = 0;
  }
#endif
}

InputBuffer InputBuffer::FromString(std::string content) {
  InputBuffer buffer;
  buffer.owned_ = std::move(content);
  buffer.view_ = buffer.owned_;
  return buffer;
}

Result<InputBuffer> InputBuffer::Open(const std::string& path,
                                      const Options& options) {
  // One open for both routes; only regular files get past it.
  int fd = -1;
  size_t size = 0;
  CONDTD_RETURN_IF_ERROR(OpenRegularFile(path, &fd, &size));
#ifdef CONDTD_HAVE_MMAP
  // mmap with length 0 is EINVAL, so empty files always take the
  // buffered path regardless of the threshold.
  if (options.allow_mmap && size > 0 && size >= options.min_mmap_bytes) {
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
      return Status::InvalidArgument("error while reading: " + path);
    }
#ifdef MADV_SEQUENTIAL
    // Single forward pass: tell the kernel to read ahead aggressively
    // and drop pages behind the scan.
    ::madvise(base, size, MADV_SEQUENTIAL);
#endif
    InputBuffer buffer;
    buffer.mapped_ = base;
    buffer.mapped_bytes_ = size;
    buffer.view_ = std::string_view(static_cast<const char*>(base), size);
    obs::SchedAdd(obs::SchedCounter::kMmapReads, 1);
    return buffer;
  }
#endif
  // A small file, --no-mmap or no mmap at all: read through the
  // descriptor already open.
  Result<std::string> content = ReadOpenFile(fd, size, path);
  ::close(fd);
  if (!content.ok()) return content.status();
  obs::SchedAdd(obs::SchedCounter::kBufferedReads, 1);
  return FromString(std::move(content).value());
}

}  // namespace condtd
