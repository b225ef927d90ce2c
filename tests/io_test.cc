// InputBuffer: the mmap-backed zero-copy input layer and its buffered
// fallback. The load-bearing test is the differential one — both paths
// must hand the pipeline the exact same bytes and so the exact same
// DTD, which is what lets the CLI pick a path per file (size threshold,
// --no-mmap) without affecting output.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/file.h"
#include "dtd/dtd_writer.h"
#include "infer/inferrer.h"
#include "io/input_buffer.h"

namespace condtd {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& content) {
    char buffer[] = "/tmp/condtd_io_test_XXXXXX";
    int fd = mkstemp(buffer);
    EXPECT_GE(fd, 0);
    path_ = buffer;
    FILE* file = fdopen(fd, "wb");
    EXPECT_NE(file, nullptr);
    if (!content.empty()) {
      EXPECT_EQ(fwrite(content.data(), 1, content.size(), file),
                content.size());
    }
    fclose(file);
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string LargeDocument() {
  // Comfortably above the 16 KiB mmap threshold.
  std::string xml = "<feed>";
  for (int i = 0; i < 2000; ++i) {
    xml += "<entry id=\"e" + std::to_string(i) +
           "\"><title>entry number " + std::to_string(i) +
           " with some text</title><author>someone</author></entry>";
  }
  xml += "</feed>";
  return xml;
}

TEST(InputBuffer, LargeRegularFileIsMapped) {
  std::string content = LargeDocument();
  TempFile file(content);
  Result<InputBuffer> buffer = InputBuffer::Open(file.path());
  ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
  EXPECT_TRUE(buffer->is_mapped());
  EXPECT_EQ(buffer->view(), content);
}

TEST(InputBuffer, SmallFileTakesTheBufferedPath) {
  std::string content = "<root><a/><b/></root>";
  TempFile file(content);
  Result<InputBuffer> buffer = InputBuffer::Open(file.path());
  ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
  EXPECT_FALSE(buffer->is_mapped());  // below min_mmap_bytes
  EXPECT_EQ(buffer->view(), content);
}

TEST(InputBuffer, NoMmapOptionForcesBufferedRead) {
  std::string content = LargeDocument();
  TempFile file(content);
  InputBuffer::Options options;
  options.allow_mmap = false;
  Result<InputBuffer> buffer = InputBuffer::Open(file.path(), options);
  ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
  EXPECT_FALSE(buffer->is_mapped());
  EXPECT_EQ(buffer->view(), content);
}

TEST(InputBuffer, ThresholdZeroMapsEvenTinyFiles) {
  std::string content = "<root/>";
  TempFile file(content);
  InputBuffer::Options options;
  options.min_mmap_bytes = 0;
  Result<InputBuffer> buffer = InputBuffer::Open(file.path(), options);
  ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
  EXPECT_TRUE(buffer->is_mapped());
  EXPECT_EQ(buffer->view(), content);
}

TEST(InputBuffer, EmptyFileYieldsEmptyView) {
  // mmap of length 0 is invalid; the open path must special-case it on
  // both routes.
  TempFile file("");
  for (bool allow_mmap : {true, false}) {
    InputBuffer::Options options;
    options.allow_mmap = allow_mmap;
    options.min_mmap_bytes = 0;
    Result<InputBuffer> buffer = InputBuffer::Open(file.path(), options);
    ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
    EXPECT_TRUE(buffer->view().empty());
  }
}

TEST(InputBuffer, BufferedAndMappedViewsAreByteIdenticalAtPageEdges) {
  // The buffered route reads st_size bytes through the descriptor the
  // open already holds; around a page boundary it must hand over exactly
  // the bytes the mapping does, whichever route the options pick.
  for (size_t size : {1, 4095, 4096, 16383}) {
    std::string content(size, '\0');
    for (size_t i = 0; i < size; ++i) {
      content[i] = static_cast<char>('a' + (i * 7 + i / 13) % 26);
    }
    TempFile file(content);
    for (bool allow_mmap : {true, false}) {
      for (size_t min_mmap_bytes : {size_t{0}, size_t{16 * 1024}}) {
        InputBuffer::Options options;
        options.allow_mmap = allow_mmap;
        options.min_mmap_bytes = min_mmap_bytes;
        Result<InputBuffer> buffer = InputBuffer::Open(file.path(), options);
        ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
        EXPECT_EQ(buffer->is_mapped(), allow_mmap && min_mmap_bytes == 0)
            << size;
        EXPECT_EQ(buffer->view(), content) << size;
      }
    }
    Result<std::string> read = ReadFileToString(file.path());
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, content) << size;
  }
}

TEST(InputBuffer, MissingFileKeepsTheLegacyErrorMessage) {
  Result<InputBuffer> buffer =
      InputBuffer::Open("/nonexistent/condtd_io_test.xml");
  ASSERT_FALSE(buffer.ok());
  EXPECT_EQ(buffer.status().code(), StatusCode::kNotFound);
  EXPECT_NE(buffer.status().message().find("cannot open file: "),
            std::string::npos);
}

TEST(InputBuffer, MoveTransfersTheView) {
  std::string content = "<root><child/></root>";
  TempFile file(content);
  Result<InputBuffer> opened = InputBuffer::Open(file.path());
  ASSERT_TRUE(opened.ok());
  InputBuffer moved = std::move(opened).value();
  InputBuffer target;
  target = std::move(moved);
  EXPECT_EQ(target.view(), content);

  // Owned (small-string) content must survive the move too — the view
  // has to re-anchor onto the moved-to string storage.
  InputBuffer from_string = InputBuffer::FromString("tiny");
  InputBuffer moved_string = std::move(from_string);
  EXPECT_EQ(moved_string.view(), "tiny");
}

TEST(InputBuffer, MmapAndBufferedProduceByteIdenticalDtds) {
  // The differential contract: a corpus read through mmap and the same
  // corpus read through the buffered fallback must infer byte-identical
  // DTDs. Mixed sizes so both paths are actually exercised in the mmap
  // configuration.
  TempFile large_a(LargeDocument());
  TempFile small(
      "<feed><entry id=\"x\"><title>small</title><author>a</author>"
      "</entry></feed>");
  TempFile large_b(LargeDocument());
  const TempFile* files[] = {&large_a, &small, &large_b};

  auto infer = [&](bool allow_mmap) {
    InputBuffer::Options options;
    options.allow_mmap = allow_mmap;
    DtdInferrer inferrer;
    for (const TempFile* file : files) {
      Result<InputBuffer> buffer =
          InputBuffer::Open(file->path(), options);
      EXPECT_TRUE(buffer.ok()) << buffer.status().ToString();
      EXPECT_TRUE(inferrer.AddXml(buffer->view()).ok());
    }
    Result<Dtd> dtd = inferrer.InferDtd();
    EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
    return WriteDtd(dtd.value(), *inferrer.alphabet());
  };
  EXPECT_EQ(infer(/*allow_mmap=*/true), infer(/*allow_mmap=*/false));
}

// Non-regular inputs: the daemon hands client-supplied paths straight
// to the input layer, so anything that is not a regular file must fail
// fast with a clear Status — and must never block (a FIFO with no
// writer hangs a naive open(O_RDONLY) forever).

TEST(InputBuffer, DirectoryIsRejected) {
  for (bool allow_mmap : {true, false}) {
    InputBuffer::Options options;
    options.allow_mmap = allow_mmap;
    Result<InputBuffer> buffer = InputBuffer::Open("/tmp", options);
    ASSERT_FALSE(buffer.ok());
    EXPECT_EQ(buffer.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(buffer.status().message().find("is a directory"),
              std::string::npos)
        << buffer.status().ToString();
  }
  Result<std::string> content = ReadFileToString("/tmp");
  ASSERT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kInvalidArgument);
}

TEST(InputBuffer, FifoIsRejectedWithoutBlocking) {
  std::string path = "/tmp/condtd_io_test_fifo";
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  // No writer exists: if the implementation opened the FIFO with a
  // plain blocking open this test would hang, not fail.
  for (bool allow_mmap : {true, false}) {
    InputBuffer::Options options;
    options.allow_mmap = allow_mmap;
    Result<InputBuffer> buffer = InputBuffer::Open(path, options);
    ASSERT_FALSE(buffer.ok());
    EXPECT_EQ(buffer.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(buffer.status().message().find("not a regular file"),
              std::string::npos)
        << buffer.status().ToString();
  }
  Result<std::string> content = ReadFileToString(path);
  ASSERT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(InputBuffer, FifoWithABlockedWriterIsNeverOpened) {
  // Opening and closing a FIFO releases a writer blocked in its
  // open(O_WRONLY), which then writes into a pipe without a reader.
  // Refusing the path must leave that writer blocked.
  std::string path = "/tmp/condtd_io_test_fifo_writer";
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  std::atomic<bool> writer_opened{false};
  int writer_fd = -1;
  std::thread writer([&path, &writer_opened, &writer_fd] {
    writer_fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    writer_opened.store(true);
  });
  // Let the writer reach its blocking open first: an open of the FIFO
  // before that point would release nothing and go unnoticed.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Result<std::string> content = ReadFileToString(path);
  ASSERT_FALSE(content.ok());
  EXPECT_NE(content.status().message().find("not a regular file"),
            std::string::npos)
      << content.status().ToString();
  for (bool allow_mmap : {true, false}) {
    InputBuffer::Options options;
    options.allow_mmap = allow_mmap;
    EXPECT_FALSE(InputBuffer::Open(path, options).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(writer_opened.load()) << "the FIFO was opened";
  // A reader's open completes the writer's.
  int reader_fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  writer.join();
  EXPECT_GE(reader_fd, 0);
  EXPECT_GE(writer_fd, 0);
  if (reader_fd >= 0) ::close(reader_fd);
  if (writer_fd >= 0) ::close(writer_fd);
  std::remove(path.c_str());
}

TEST(InputBuffer, DeviceFileIsRejected) {
  Result<std::string> content = ReadFileToString("/dev/null");
  ASSERT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(content.status().message().find("not a regular file"),
            std::string::npos)
      << content.status().ToString();
}

TEST(InputBuffer, ProcfsZeroSizeFileIsReadInFull) {
  // procfs regular files report st_size == 0 but are not empty; the
  // presized fast path would return "" for them.
  Result<std::string> content = ReadFileToString("/proc/self/status");
  if (!content.ok()) GTEST_SKIP() << "no procfs here";
  EXPECT_NE(content->find("Name:"), std::string::npos);

  Result<InputBuffer> buffer = InputBuffer::Open("/proc/self/status");
  ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
  EXPECT_NE(buffer->view().find("Name:"), std::string_view::npos);
}

TEST(InputBuffer, MissingFileIsNotFound) {
  Result<std::string> content =
      ReadFileToString("/nonexistent/condtd/x.xml");
  ASSERT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace condtd
