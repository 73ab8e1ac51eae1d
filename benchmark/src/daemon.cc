#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/strings.h"

namespace blitz::bench {
namespace {

/// The value of `key:` in a /proc status file, in kB; -1 when absent.
double ProcStatusKb(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::atof(line.c_str() + key.size() + 1);
    }
  }
  return -1;
}

}  // namespace

Result<std::unique_ptr<Daemon>> Daemon::Spawn(const std::string& binary,
                                              const std::string& socket,
                                              const std::string& log_path) {
  ::unlink(socket.c_str());
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return Status::Internal(StrFormat("open %s: %s", log_path.c_str(),
                                      std::strerror(errno)));
  }
  std::vector<std::string> args = {binary, "--unix", socket, "--workers", "2"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return Status::Internal(StrFormat("fork: %s", std::strerror(errno)));
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  return std::unique_ptr<Daemon>(new Daemon(pid));
}

Daemon::~Daemon() { (void)Stop(); }

Status Daemon::Stop() {
  if (pid_ <= 0) return Status::OK();
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  pid_t reaped = 0;
  while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (reaped == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (reaped == 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("blitzd did not exit cleanly");
  }
  return Status::OK();
}

double Daemon::CpuMs() const {
  // The process CPU clock counts nanoseconds; /proc/<pid>/stat counts
  // 10 ms ticks, too coarse for a window of a fraction of a second.
  clockid_t clock = 0;
  timespec ts{};
  if (::clock_getcpuclockid(pid_, &clock) == 0 &&
      ::clock_gettime(clock, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  }
  std::ifstream in(StrFormat("/proc/%d/stat", static_cast<int>(pid_)));
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::PeakRssMb() const {
  return ProcStatusKb(StrFormat("/proc/%d/status", static_cast<int>(pid_)),
                      "VmHWM") /
         1024.0;
}

Result<int> ConnectUnix(const std::string& path, double timeout_s) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::duration<double>(timeout_s));
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      return Status::Internal(StrFormat("socket: %s", std::strerror(errno)));
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    const int error = errno;
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::Unavailable(StrFormat("connect %s: %s", path.c_str(),
                                           std::strerror(error)));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

double SelfCpuMs() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double SelfPeakRssMb() {
  return ProcStatusKb("/proc/self/status", "VmHWM") / 1024.0;
}

int SelfThreads() {
  return static_cast<int>(ProcStatusKb("/proc/self/status", "Threads"));
}

}  // namespace blitz::bench
