#ifndef CONDTD_BASE_FILE_H_
#define CONDTD_BASE_FILE_H_

#include <cstddef>
#include <string>

#include "base/status.h"

namespace condtd {

/// Opens `path` read-only and accepts only a regular file: a missing or
/// unopenable path fails with "cannot open file: <path>", directories
/// with "is a directory" and FIFOs/devices/sockets with "not a regular
/// file" — without ever opening them, so a FIFO can never block the
/// caller or release a writer blocked on it (the serve daemon hands
/// client-supplied paths straight here). The type is checked again on
/// the open descriptor, in case the path changed in between. On success
/// `*fd` is open — the caller closes it — and `*size` is the file's
/// reported size.
Status OpenRegularFile(const std::string& path, int* fd, size_t* size);

/// Reads the file behind `fd` from its current offset: exactly `size`
/// bytes (a short read fails with "error while reading: <path>"), or,
/// when `size` is 0, everything up to end of file — procfs/sysfs report
/// st_size == 0 for files that are not empty.
Result<std::string> ReadOpenFile(int fd, size_t size,
                                 const std::string& path);

/// Reads an entire regular file into memory: OpenRegularFile (so a
/// directory, FIFO, device or socket is refused without ever being
/// opened), then ReadOpenFile on the same descriptor.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes `content` to `path`, replacing any existing file.
Status WriteStringToFile(const std::string& path,
                         const std::string& content);

/// Creates `path` (and any missing parents) as a directory, mkdir -p
/// style. Succeeds if the directory already exists; fails when a
/// non-directory is in the way.
Status EnsureDirectory(const std::string& path);

}  // namespace condtd

#endif  // CONDTD_BASE_FILE_H_
