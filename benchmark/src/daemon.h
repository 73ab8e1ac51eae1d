#ifndef BLITZBENCH_DAEMON_H_
#define BLITZBENCH_DAEMON_H_

#include <sys/types.h>

#include <memory>
#include <string>

#include "common/status.h"

namespace blitz::bench {

/// A spawned blitzd. The child is SIGKILLed if this process dies, and the
/// destructor stops it, so no daemon outlives a run.
class Daemon {
 public:
  /// Starts `binary --unix <socket> --workers 2` (every other flag at its
  /// default) with stdout and stderr appended to `log_path`.
  static Result<std::unique_ptr<Daemon>> Spawn(const std::string& binary,
                                               const std::string& socket,
                                               const std::string& log_path);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// SIGTERM (graceful drain), then SIGKILL after 10 s; reaps the child.
  /// Returns an error when the daemon did not exit cleanly.
  Status Stop();

  pid_t pid() const { return pid_; }

  /// CPU time of the daemon so far, all threads: its process CPU clock,
  /// or utime + stime from /proc/<pid>/stat where that clock is refused.
  double CpuMs() const;
  /// VmHWM of the daemon, from /proc/<pid>/status.
  double PeakRssMb() const;

 private:
  explicit Daemon(pid_t pid) : pid_(pid) {}

  pid_t pid_;
};

/// Connects to the unix socket `path`, retrying every millisecond for up to
/// `timeout_s` (the daemon may still be starting).
Result<int> ConnectUnix(const std::string& path, double timeout_s);

/// This process's user + system CPU time.
double SelfCpuMs();
/// This process's VmHWM.
double SelfPeakRssMb();
/// Threads of this process right now.
int SelfThreads();

}  // namespace blitz::bench

#endif  // BLITZBENCH_DAEMON_H_
