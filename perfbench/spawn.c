/* perfbench_spawn: runs one measured program as the child of a small
 * process and reports what that child cost.
 *
 *   perfbench_spawn RESULT CWD STDOUT PROGRAM [ARG...]
 *   perfbench_spawn --noop
 *
 * The child runs in CWD with its standard output sent to STDOUT ("-"
 * keeps the inherited one). After it exits, RESULT receives one line:
 *
 *   <spawn_ns> <wall_ns> <maxrss_kib> <wait_status>
 *
 * spawn_ns is CLOCK_MONOTONIC just before fork() (the clock behind
 * std::chrono::steady_clock, so the harness can time a readiness line
 * against it); wall_ns runs from there to the return of wait4().
 *
 * Why a separate process: the kernel seeds a child's ru_maxrss with the
 * resident set of the process that forked it, so a child of the harness
 * (which may hold a 64 MiB corpus) would report the harness's memory.
 * This launcher stays near 1 MiB; `--noop` is the do-nothing child the
 * harness uses to check that bound.
 *
 * SIGTERM kills the measured child and still waits for it, so the
 * harness can stop a daemon without orphaning it. The launcher also
 * dies with its parent, and the child with the launcher. */

#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static volatile sig_atomic_t child_pid = 0;

static void ForwardTerm(int sig) {
  (void)sig;
  if (child_pid > 0) kill((pid_t)child_pid, SIGKILL);
}

static long long NowNs(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

int main(int argc, char** argv) {
  if (argc == 2 && strcmp(argv[1], "--noop") == 0) return 0;
  if (argc < 5) {
    fprintf(stderr,
            "usage: perfbench_spawn RESULT CWD STDOUT PROGRAM [ARG...]\n");
    return 2;
  }
  const char* result_path = argv[1];
  const char* cwd = argv[2];
  const char* stdout_path = argv[3];

  prctl(PR_SET_PDEATHSIG, SIGTERM);
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_handler = ForwardTerm;
  sigaction(SIGTERM, &action, NULL);

  long long start = NowNs();
  pid_t pid = fork();
  if (pid < 0) {
    perror("perfbench_spawn: fork");
    return 1;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (chdir(cwd) != 0) {
      perror("perfbench_spawn: chdir");
      _exit(127);
    }
    if (strcmp(stdout_path, "-") != 0) {
      int fd = open(stdout_path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
      if (fd < 0 || dup2(fd, STDOUT_FILENO) < 0) {
        perror("perfbench_spawn: stdout");
        _exit(127);
      }
    }
    execv(argv[4], argv + 4);
    perror("perfbench_spawn: exec");
    _exit(127);
  }
  child_pid = pid;

  int status = 0;
  struct rusage usage;
  memset(&usage, 0, sizeof(usage));
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      perror("perfbench_spawn: wait4");
      return 1;
    }
  }
  long long wall = NowNs() - start;

  FILE* out = fopen(result_path, "w");
  if (out == NULL) {
    perror("perfbench_spawn: result");
    return 1;
  }
  fprintf(out, "%lld %lld %ld %d\n", start, wall, usage.ru_maxrss, status);
  return fclose(out) == 0 ? 0 : 1;
}
