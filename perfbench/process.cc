// Child processes: measured runs under perfbench_spawn, unmeasured
// check runs, and the serve daemon with its one client connection.

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "base/file.h"
#include "harness.h"

namespace condtd {
namespace perfbench {
namespace {

constexpr int kReadyTimeoutMs = 120 * 1000;

/// The whole environment of a measured child: its caches, if any, land
/// in `home`, inside the work dir.
std::vector<std::string> ChildEnv(const std::string& home) {
  return {"HOME=" + home, "TMPDIR=" + home, "XDG_CACHE_HOME=" + home,
          "PATH=/usr/local/bin:/usr/bin:/bin", "LC_ALL=C"};
}

std::vector<char*> CStrings(std::vector<std::string>& strings) {
  std::vector<char*> out;
  for (std::string& s : strings) out.push_back(s.data());
  out.push_back(nullptr);
  return out;
}

/// posix_spawn with stdout either inherited (`stdout_fd` < 0 and
/// `stdout_path` empty), dup'ed from `stdout_fd`, or opened at
/// `stdout_path`.
Result<pid_t> Spawn(std::vector<std::string> argv,
                    std::vector<std::string> env, int stdout_fd,
                    const std::string& stdout_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (stdout_fd >= 0) {
    posix_spawn_file_actions_adddup2(&actions, stdout_fd, STDOUT_FILENO);
  } else if (!stdout_path.empty()) {
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     stdout_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  std::vector<char*> args = CStrings(argv);
  std::vector<char*> envp = CStrings(env);
  pid_t pid = -1;
  int rc = ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                         envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    return Status::Internal("spawn " + argv[0] + ": " + ::strerror(rc));
  }
  return pid;
}

int WaitFor(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

Result<ChildCost> ReadCost(const std::string& result_path) {
  Result<std::string> text = ReadFileToString(result_path);
  if (!text.ok()) return text.status();
  ChildCost cost;
  long long spawn = 0, wall = 0, rss = 0;
  int status = 0;
  if (std::sscanf(text->c_str(), "%lld %lld %lld %d", &spawn, &wall, &rss,
                  &status) != 4) {
    return Status::Internal("malformed launcher result: " + *text);
  }
  cost.spawn_ns = spawn;
  cost.wall_ns = wall;
  cost.maxrss_kib = rss;
  cost.wait_status = status;
  return cost;
}

}  // namespace

void PinToOneCpu() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  ::sched_setaffinity(0, sizeof(one), &one);
}

bool ChildCost::exited_ok() const {
  return WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0;
}

Result<ChildCost> RunMeasured(const Context& ctx,
                              const std::vector<std::string>& argv,
                              const std::string& cwd,
                              const std::string& stdout_path,
                              const std::string& home) {
  std::error_code error;
  std::filesystem::create_directories(home, error);
  std::string result_path = ctx.dir + "/measured.result";
  std::vector<std::string> launcher = {ctx.spawn, result_path, cwd,
                                       stdout_path};
  launcher.insert(launcher.end(), argv.begin(), argv.end());
  Result<pid_t> pid = Spawn(launcher, ChildEnv(home), -1, "");
  if (!pid.ok()) return pid.status();
  int status = WaitFor(*pid);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("perfbench_spawn failed for " + argv[0]);
  }
  return ReadCost(result_path);
}

Result<int> RunPlain(const std::vector<std::string>& argv,
                     const std::string& stdout_path) {
  Result<pid_t> pid = Spawn(argv, ChildEnv(std::filesystem::current_path()),
                            -1, stdout_path);
  if (!pid.ok()) return pid.status();
  int status = WaitFor(*pid);
  if (!WIFEXITED(status)) return Status::Internal(argv[0] + " was killed");
  return WEXITSTATUS(status);
}

Result<std::unique_ptr<Daemon>> Daemon::Start(const Context& ctx,
                                              const std::string& data_dir,
                                              const std::string& tag) {
  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->result_path_ = ctx.dir + "/daemon-" + tag + ".result";
  // Relative to the work dir, which is the cwd of both ends: a Unix
  // socket path must stay under 108 bytes wherever the checkout lives.
  std::string socket = "daemon-" + tag + ".sock";
  std::string home = ctx.dir + "/home";
  std::error_code error;
  std::filesystem::create_directories(home, error);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return Status::Internal(std::string("pipe: ") + ::strerror(errno));
  }
  std::vector<std::string> argv = {ctx.spawn,  daemon->result_path_,
                                   ctx.dir,    "-",
                                   ctx.condtd, "serve",
                                   "--socket=" + socket, "--no-fsync"};
  if (!data_dir.empty()) argv.push_back("--data-dir=" + data_dir);
  Result<pid_t> pid = Spawn(argv, ChildEnv(home), fds[1], "");
  ::close(fds[1]);
  if (!pid.ok()) {
    ::close(fds[0]);
    return pid.status();
  }
  daemon->launcher_ = *pid;
  daemon->stdout_fd_ = fds[0];

  std::string line;
  while (line.find('\n') == std::string::npos) {
    struct pollfd poll_fd = {daemon->stdout_fd_, POLLIN, 0};
    int ready = ::poll(&poll_fd, 1, kReadyTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    char buffer[256];
    ssize_t n = ready > 0 ? ::read(daemon->stdout_fd_, buffer,
                                   sizeof(buffer))
                          : 0;
    if (n <= 0) {
      return Status::Internal("condtd serve exited or stalled before its "
                              "readiness line");
    }
    line.append(buffer, static_cast<size_t>(n));
  }
  daemon->ready_ns_ = NowNs();
  if (line.rfind("condtd serve listening on", 0) != 0) {
    return Status::Internal("unexpected readiness line: " + line);
  }
  Result<serve::Client> client = serve::Client::ConnectUnix(socket);
  if (!client.ok()) return client.status();
  daemon->client_ = std::move(*client);
  return daemon;
}

Daemon::~Daemon() { Kill(); }

void Daemon::Kill() {
  if (launcher_ > 0) {
    // The launcher answers SIGTERM by killing the daemon and reaping it.
    ::kill(launcher_, SIGTERM);
    WaitFor(launcher_);
    launcher_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

Result<ChildCost> Daemon::Shutdown() {
  Result<std::string> reply = client_.Shutdown();
  client_.Close();
  if (!reply.ok()) {
    Kill();
    return reply.status();
  }
  int status = WaitFor(launcher_);
  launcher_ = -1;
  ::close(stdout_fd_);
  stdout_fd_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("perfbench_spawn failed for condtd serve");
  }
  return ReadCost(result_path_);
}

}  // namespace perfbench
}  // namespace condtd
