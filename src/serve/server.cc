#include "serve/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdlib>
#include <utility>

#include "base/strings.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "serve/prometheus.h"

namespace condtd {
namespace serve {
namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  size_t pos = 0;
  while (pos < line.size()) {
    size_t space = line.find(' ', pos);
    if (space == std::string::npos) space = line.size();
    if (space > pos) tokens.push_back(line.substr(pos, space - pos));
    pos = space + 1;
  }
  return tokens;
}

void AppendJsonInt(std::string* out, std::string_view key, int64_t value,
                   bool* first) {
  if (!*first) out->append(",\n");
  *first = false;
  out->append("        \"");
  out->append(key);
  out->append("\": ");
  out->append(std::to_string(value));
}

void AppendLatencyJson(std::string* out, std::string_view key,
                       const obs::StageStats& histogram, bool* first) {
  if (!*first) out->append(",\n");
  *first = false;
  out->append("        \"");
  out->append(key);
  out->append("\": {\"count\": ");
  out->append(std::to_string(histogram.count));
  out->append(", \"total_ns\": ");
  out->append(std::to_string(histogram.total_ns));
  out->append(", \"p50_ns\": ");
  out->append(std::to_string(histogram.QuantileNs(0.50)));
  out->append(", \"p99_ns\": ");
  out->append(std::to_string(histogram.QuantileNs(0.99)));
  out->append("}");
}

/// Binds and listens on a loopback TCP socket; reports the bound port
/// (for port 0 requests) through `bound_port`.
Status ListenTcp(const std::string& host, int port, int* out_fd,
                 int* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + ::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  ::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen host: " + host);
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    int saved = errno;
    ::close(fd);
    return Status::Internal("bind port " + std::to_string(port) + ": " +
                            ::strerror(saved));
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) == 0) {
    *bound_port = ntohs(bound.sin_port);
  }
  if (::listen(fd, 64) != 0) {
    int saved = errno;
    ::close(fd);
    return Status::Internal(std::string("listen: ") + ::strerror(saved));
  }
  *out_fd = fd;
  return Status::OK();
}

Status SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("send: ") + ::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

CorpusRegistry::Options RegistryOptions(const ServerOptions& options) {
  CorpusRegistry::Options registry;
  registry.corpus = options.corpus;
  registry.corpus_ttl_seconds = options.corpus_ttl_seconds;
  registry.max_corpora = options.max_corpora;
  registry.clock_ns = options.clock_ns;
  return registry;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), registry_(RegistryOptions(options_)) {
  if (options_.workers < 1) options_.workers = 1;
}

Server::~Server() {
  if (started_ && !joined_) Stop();
}

Status Server::Start() {
  if (started_) return Status::FailedPrecondition("server already started");

  // Reopen everything persisted before accepting a single request, so
  // a QUERY right after restart already sees the recovered corpora.
  CONDTD_RETURN_IF_ERROR(registry_.RecoverAll());

  if (!options_.unix_socket.empty()) {
    struct sockaddr_un addr;
    ::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     options_.unix_socket);
    }
    ::memcpy(addr.sun_path, options_.unix_socket.c_str(),
             options_.unix_socket.size() + 1);
    // A stale socket file from a dead daemon blocks bind(); remove it,
    // but refuse to clobber anything that is not a socket.
    struct stat info;
    if (::lstat(options_.unix_socket.c_str(), &info) == 0) {
      if (!S_ISSOCK(info.st_mode)) {
        return Status::InvalidArgument(
            "listener path exists and is not a socket: " +
            options_.unix_socket);
      }
      ::unlink(options_.unix_socket.c_str());
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      return Status::Internal(std::string("socket: ") + ::strerror(errno));
    }
    if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      int saved = errno;
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::Internal("bind " + options_.unix_socket + ": " +
                              ::strerror(saved));
    }
    if (::listen(listen_fd_, 64) != 0) {
      int saved = errno;
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::Internal(std::string("listen: ") + ::strerror(saved));
    }
  } else if (options_.tcp_port >= 0) {
    CONDTD_RETURN_IF_ERROR(ListenTcp(options_.tcp_host, options_.tcp_port,
                                     &listen_fd_, &port_));
  } else {
    return Status::InvalidArgument(
        "no listener configured (need unix_socket or tcp_port)");
  }

  if (options_.http_port >= 0) {
    Status http = ListenTcp(options_.http_host, options_.http_port,
                            &http_listen_fd_, &http_port_);
    if (!http.ok()) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      if (!options_.unix_socket.empty()) {
        ::unlink(options_.unix_socket.c_str());
      }
      return Status(http.code(),
                    "http listener: " + std::string(http.message()));
    }
  }

  registry_.StartSweeper();

  started_ = true;
  active_fds_.assign(static_cast<size_t>(options_.workers), -1);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  return Status::OK();
}

void Server::RequestStop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return;
  stopping_ = true;
  // Break the accept loop and any worker mid-recv; both observe EOF /
  // EINVAL and fall out to the stopping_ check.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (http_listen_fd_ >= 0) ::shutdown(http_listen_fd_, SHUT_RDWR);
  for (int fd : active_fds_) {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  work_ready_.notify_all();
  stop_requested_cv_.notify_all();
}

void Server::Wait() {
  if (!started_ || joined_) return;
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_requested_cv_.wait(lock, [this] { return stopping_; });
  }
  accept_thread_.join();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  registry_.StopSweeper();
  for (const PendingConn& conn : pending_conns_) ::close(conn.fd);
  pending_conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (http_listen_fd_ >= 0) {
    ::close(http_listen_fd_);
    http_listen_fd_ = -1;
  }
  if (!options_.unix_socket.empty()) {
    ::unlink(options_.unix_socket.c_str());
  }
  joined_ = true;
}

void Server::Stop() {
  RequestStop();
  Wait();
}

void Server::AcceptLoop() {
  for (;;) {
    struct pollfd fds[2];
    nfds_t nfds = 0;
    fds[nfds].fd = listen_fd_;
    fds[nfds].events = POLLIN;
    fds[nfds].revents = 0;
    ++nfds;
    int http_index = -1;
    if (http_listen_fd_ >= 0) {
      http_index = static_cast<int>(nfds);
      fds[nfds].fd = http_listen_fd_;
      fds[nfds].events = POLLIN;
      fds[nfds].revents = 0;
      ++nfds;
    }
    int ready = ::poll(fds, nfds, -1);
    int saved_errno = ready < 0 ? errno : 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    if (ready < 0) {
      if (saved_errno == EINTR) continue;
      RequestStop();
      return;
    }
    for (nfds_t i = 0; i < nfds; ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      bool http = static_cast<int>(i) == http_index;
      int fd = ::accept(fds[i].fd, nullptr, nullptr);
      saved_errno = fd < 0 ? errno : 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) {
          if (fd >= 0) ::close(fd);
          return;
        }
        if (fd >= 0) {
          pending_conns_.push_back(PendingConn{fd, http});
          work_ready_.notify_one();
          continue;
        }
      }
      if (saved_errno == EINTR || saved_errno == ECONNABORTED ||
          saved_errno == EAGAIN || saved_errno == EWOULDBLOCK) {
        continue;
      }
      // Listener broken (or shut down concurrently): stop the server so
      // Wait() returns instead of hanging on a dead socket.
      RequestStop();
      return;
    }
  }
}

void Server::WorkerLoop(int worker_index) {
  for (;;) {
    PendingConn conn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] {
        return stopping_ || !pending_conns_.empty();
      });
      if (stopping_) return;
      conn = pending_conns_.front();
      pending_conns_.pop_front();
      active_fds_[static_cast<size_t>(worker_index)] = conn.fd;
    }
    if (conn.http) {
      ServeHttpConnection(conn.fd);
    } else {
      ServeConnection(conn.fd, worker_index);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_fds_[static_cast<size_t>(worker_index)] = -1;
    }
    ::close(conn.fd);
  }
}

void Server::ServeConnection(int fd, int worker_index) {
  (void)worker_index;
  WireReader reader(fd);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    std::string line;
    bool eof = false;
    Status read = reader.ReadLine(&line, &eof);
    if (!read.ok()) {
      (void)WriteResponse(fd, false, read.ToString());
      return;
    }
    if (eof) return;
    if (line.empty()) continue;  // tolerate blank lines between requests

    bool shutdown = false;
    Result<std::string> response = Handle(line, &reader, &shutdown);
    Status written =
        response.ok()
            ? WriteResponse(fd, true, *response)
            : WriteResponse(fd, false, response.status().ToString());
    if (!response.ok()) {
      obs::SchedAdd(obs::SchedCounter::kServeRequestErrors, 1);
    }
    if (shutdown) {
      RequestStop();
      return;
    }
    if (!written.ok()) return;  // peer went away
  }
}

void Server::ServeHttpConnection(int fd) {
  obs::SchedAdd(obs::SchedCounter::kHttpRequests, 1);
  // Read the request head only; the endpoints are body-less GETs and a
  // hostile header stream is cut off at a fixed cap.
  std::string head;
  char buf[4096];
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.find("\n\n") == std::string::npos) {
    if (head.size() > 16384) break;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    head.append(buf, static_cast<size_t>(n));
  }
  if (head.empty()) return;

  size_t eol = head.find('\n');
  std::string request_line =
      eol == std::string::npos ? head : head.substr(0, eol);
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.pop_back();
  }
  std::vector<std::string> parts = Tokenize(request_line);
  std::string method = parts.empty() ? "" : parts[0];
  std::string target = parts.size() < 2 ? "" : parts[1];
  target = target.substr(0, target.find('?'));

  std::string status_line = "HTTP/1.1 200 OK";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  if (method != "GET") {
    status_line = "HTTP/1.1 405 Method Not Allowed";
    body = "method not allowed\n";
  } else if (target == "/healthz") {
    body = "ok\n";
  } else if (target == "/metrics") {
    std::vector<std::pair<std::string, CorpusStats>> corpora;
    for (const std::shared_ptr<Corpus>& corpus : registry_.List()) {
      corpora.emplace_back(corpus->id(), corpus->GetStats());
    }
    body = RenderPrometheusText(corpora, obs::SnapshotStats());
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else {
    status_line = "HTTP/1.1 404 Not Found";
    body = "not found (want /metrics or /healthz)\n";
  }

  std::string response;
  response.reserve(body.size() + 256);
  response += status_line;
  response += "\r\nContent-Type: ";
  response += content_type;
  response += "\r\nContent-Length: ";
  response += std::to_string(body.size());
  response += "\r\nConnection: close\r\n\r\n";
  response += body;
  (void)SendAll(fd, response);
}

Result<std::string> Server::Handle(const std::string& line,
                                   WireReader* reader, bool* shutdown) {
  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) return Status::InvalidArgument("empty command");
  const std::string& command = tokens[0];

  if (command == "PING") {
    return std::string("pong");
  }
  if (command == "INGEST") {
    return HandleIngest(tokens, line, reader);
  }
  if (command == "QUERY") {
    return HandleQuery(tokens);
  }
  if (command == "SNAPSHOT") {
    return HandleSnapshot(tokens);
  }
  if (command == "STATS") {
    return RenderStats();
  }
  if (command == "SHUTDOWN") {
    *shutdown = true;
    return std::string("shutting down");
  }
  return Status::InvalidArgument(
      "unknown command " + command +
      " (want PING, INGEST, QUERY, SNAPSHOT, STATS or SHUTDOWN)");
}

Result<std::string> Server::HandleIngest(
    const std::vector<std::string>& tokens, const std::string& line,
    WireReader* reader) {
  if (tokens.size() < 3) {
    return Status::InvalidArgument(
        "usage: INGEST <corpus> INLINE <nbytes> | INGEST <corpus> PATH "
        "<path>");
  }
  const std::string& corpus_id = tokens[1];
  const std::string& mode = tokens[2];

  std::shared_ptr<Corpus> corpus;
  if (mode == "INLINE") {
    if (tokens.size() != 4) {
      return Status::InvalidArgument(
          "usage: INGEST <corpus> INLINE <nbytes>");
    }
    // Strict parse: "-1", "1x", "" and overflow are all rejected before
    // any payload read — a bad length must never size an allocation.
    int64_t nbytes = 0;
    if (!ParseInt64(tokens[3], &nbytes) || nbytes <= 0) {
      return Status::InvalidArgument(
          "bad INLINE length (want a positive integer): " + tokens[3]);
    }
    if (nbytes > options_.max_inline_bytes) {
      // Keep the connection framed without buffering the oversized
      // payload: throw it away in fixed-size chunks.
      (void)reader->Discard(static_cast<size_t>(nbytes) + 1);
      return Status::InvalidArgument(
          "INLINE payload of " + std::to_string(nbytes) +
          " bytes exceeds --max-inline-bytes=" +
          std::to_string(options_.max_inline_bytes));
    }
    Result<std::shared_ptr<Corpus>> opened = registry_.GetOrCreate(corpus_id);
    if (!opened.ok()) {
      // Same framing rule on the rejection path (bad corpus id, full
      // registry): drain the announced payload, never buffer it.
      (void)reader->Discard(static_cast<size_t>(nbytes) + 1);
      return opened.status();
    }
    corpus = std::move(*opened);
    std::string doc;
    CONDTD_RETURN_IF_ERROR(
        reader->ReadExact(static_cast<size_t>(nbytes), &doc));
    std::string terminator;
    CONDTD_RETURN_IF_ERROR(reader->ReadExact(1, &terminator));
    if (terminator != "\n") {
      return Status::InvalidArgument(
          "INLINE payload not newline-terminated");
    }
    CONDTD_RETURN_IF_ERROR(corpus->Ingest(doc));
  } else if (mode == "PATH") {
    // The path is the rest of the line verbatim (it may contain
    // interior spaces). Recover it by scanning the original line past
    // the first three tokens — Tokenize collapses space runs, so token
    // lengths alone cannot locate where the path starts.
    size_t pos = 0;
    for (int t = 0; t < 3; ++t) {
      while (pos < line.size() && line[pos] == ' ') ++pos;
      while (pos < line.size() && line[pos] != ' ') ++pos;
    }
    while (pos < line.size() && line[pos] == ' ') ++pos;
    std::string path = line.substr(pos);
    if (path.empty()) {
      return Status::InvalidArgument("usage: INGEST <corpus> PATH <path>");
    }
    Result<std::shared_ptr<Corpus>> opened = registry_.GetOrCreate(corpus_id);
    if (!opened.ok()) return opened.status();
    corpus = std::move(*opened);
    CONDTD_RETURN_IF_ERROR(corpus->IngestFile(path));
  } else {
    return Status::InvalidArgument("unknown INGEST mode " + mode +
                                   " (want INLINE or PATH)");
  }
  return "ingested documents=" +
         std::to_string(corpus->GetStats().documents) +
         " epoch=" + std::to_string(corpus->epoch());
}

Result<std::string> Server::HandleQuery(
    const std::vector<std::string>& tokens) {
  if (tokens.size() < 2) {
    return Status::InvalidArgument(
        "usage: QUERY <corpus> [--algorithm=<name>] [--format=dtd|xsd]");
  }
  std::string algorithm;
  bool xsd = false;
  for (size_t i = 2; i < tokens.size(); ++i) {
    const std::string& flag = tokens[i];
    if (flag.rfind("--algorithm=", 0) == 0) {
      algorithm = flag.substr(12);
    } else if (flag == "--format=dtd") {
      xsd = false;
    } else if (flag == "--format=xsd") {
      xsd = true;
    } else {
      return Status::InvalidArgument("unknown QUERY flag: " + flag);
    }
  }
  Result<std::shared_ptr<Corpus>> corpus = registry_.Get(tokens[1]);
  if (!corpus.ok()) return corpus.status();
  return (*corpus)->Query(algorithm, xsd);
}

Result<std::string> Server::HandleSnapshot(
    const std::vector<std::string>& tokens) {
  if (tokens.size() > 2) {
    return Status::InvalidArgument("usage: SNAPSHOT [<corpus>]");
  }
  if (tokens.size() == 2) {
    Result<std::shared_ptr<Corpus>> corpus = registry_.Get(tokens[1]);
    if (!corpus.ok()) return corpus.status();
    CONDTD_RETURN_IF_ERROR((*corpus)->WriteSnapshot());
    return "snapshot " + tokens[1] + " generation=" +
           std::to_string((*corpus)->GetStats().generation);
  }
  std::string report;
  for (const std::shared_ptr<Corpus>& corpus : registry_.List()) {
    CONDTD_RETURN_IF_ERROR(corpus->WriteSnapshot());
    if (!report.empty()) report.push_back('\n');
    report += "snapshot " + corpus->id() + " generation=" +
              std::to_string(corpus->GetStats().generation);
  }
  if (report.empty()) report = "no corpora";
  return report;
}

std::string Server::RenderStats() {
  // Schema v1 (append-only within objects, like the obs report):
  // per-corpus operational counters plus the whole process-level obs
  // report under "process".
  std::string out;
  out.reserve(4096);
  out.append("{\n  \"condtd_serve_stats_version\": 1,\n  \"corpora\": {");
  std::vector<std::shared_ptr<Corpus>> corpora = registry_.List();
  for (size_t i = 0; i < corpora.size(); ++i) {
    CorpusStats stats = corpora[i]->GetStats();
    out.append(i == 0 ? "\n" : ",\n");
    out.append("    \"");
    out.append(corpora[i]->id());  // ids are [A-Za-z0-9_.-]+: no escaping
    out.append("\": {\n");
    bool first = true;
    AppendJsonInt(&out, "documents_ingested", stats.documents, &first);
    AppendJsonInt(&out, "documents_failed", stats.failed_documents,
                  &first);
    AppendJsonInt(&out, "bytes_ingested", stats.bytes_ingested, &first);
    AppendJsonInt(&out, "queries", stats.queries, &first);
    AppendJsonInt(&out, "query_cache_hits", stats.query_cache_hits,
                  &first);
    AppendJsonInt(&out, "snapshots", stats.snapshots, &first);
    AppendJsonInt(&out, "replayed_documents", stats.replayed_documents,
                  &first);
    AppendJsonInt(&out, "epoch", stats.epoch, &first);
    AppendJsonInt(&out, "generation", stats.generation, &first);
    AppendJsonInt(&out, "journal_bytes", stats.journal_bytes, &first);
    AppendJsonInt(&out, "condtd_corpus_bytes", stats.approx_bytes,
                  &first);
    AppendLatencyJson(&out, "ingest_latency", stats.ingest_latency,
                      &first);
    AppendLatencyJson(&out, "query_latency", stats.query_latency, &first);
    AppendJsonInt(&out, "compactions", stats.compactions, &first);
    out.append("\n    }");
  }
  out.append(corpora.empty() ? "},\n" : "\n  },\n");
  out.append("  \"process\": ");
  out.append(obs::RenderStatsJson(obs::SnapshotStats()));
  out.append("\n}");
  return out;
}

}  // namespace serve
}  // namespace condtd
