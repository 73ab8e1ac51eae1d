#ifndef BLITZ_TESTS_SERVE_HARNESS_H_
#define BLITZ_TESTS_SERVE_HARNESS_H_

// The serving topology blitzd runs, in one process: a BlitzServer behind
// ServeMultiplexed on a unix socket, plus blocking client connections.
// Shared by the serve tests and the serve_soak harness (so it avoids gtest
// macros), which therefore all exercise the production connection path.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "serve/mux.h"
#include "serve/server.h"
#include "serve/stream.h"

namespace blitz::testing {

/// A unix-socket listener plus the wake pipe and mux thread. Set-up
/// failures (invalid options, no socket) abort: there is nothing to test.
class MuxHarness {
 public:
  explicit MuxHarness(ServerOptions server_options = ServerOptions{},
                      MuxOptions mux_options = MuxOptions{}) {
    std::snprintf(path_, sizeof(path_), "/tmp/blitz_mux_%d_%p.sock",
                  ::getpid(), static_cast<void*>(this));
    ::unlink(path_);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const sockaddr_un addr = Address();
    Check(listen_fd_ >= 0 &&
              ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0 &&
              ::listen(listen_fd_, 1024) == 0 && ::pipe(wake_pipe_) == 0,
          std::strerror(errno));

    Result<std::unique_ptr<BlitzServer>> server =
        BlitzServer::Create(std::move(server_options));
    Check(server.ok(), server.status().ToString().c_str());
    server_ = std::move(*server);

    mux_options.listen_fd = listen_fd_;
    mux_options.wake_fd = wake_pipe_[0];
    thread_ = std::thread([this, mux_options] {
      served_ = ServeMultiplexed(server_.get(), mux_options);
    });
  }

  ~MuxHarness() {
    Finish();
    ::close(listen_fd_);
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    ::unlink(path_);
  }

  MuxHarness(const MuxHarness&) = delete;
  MuxHarness& operator=(const MuxHarness&) = delete;

  /// Fires the wake fd (the SIGTERM analog) and joins the mux thread: the
  /// server has drained and every connection is closed when this returns.
  Status Finish() {
    if (thread_.joinable()) {
      const char byte = 1;
      [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
      thread_.join();
    }
    return served_;
  }

  /// Opens one blocking client connection; -1 on failure.
  int Connect() {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const sockaddr_un addr = Address();
    if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  BlitzServer* server() { return server_.get(); }

 private:
  static void Check(bool ok, const char* what) {
    if (ok) return;
    std::fprintf(stderr, "MuxHarness set-up failed: %s\n", what);
    std::abort();
  }

  sockaddr_un Address() const {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path_, std::strlen(path_) + 1);
    return addr;
  }

  char path_[96];
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::unique_ptr<BlitzServer> server_;
  Status served_ = Status::OK();
  std::thread thread_;  ///< The mux loop; uses every member above.
};

/// One blocking client connection to a MuxHarness.
class MuxConnection {
 public:
  explicit MuxConnection(MuxHarness* harness)
      : MuxConnection(harness->Connect()) {}

  ByteStream* stream() { return &stream_; }

  /// Half-closes the request direction and reads until the server closes
  /// the connection, which it does only once every request it read has
  /// been answered. Unread responses are discarded.
  void Finish() {
    stream_.CloseWrite();
    char buf[4096];
    for (;;) {
      Result<std::size_t> n = stream_.Read(buf, sizeof(buf));
      if (!n.ok() || *n == 0) break;
    }
  }

 private:
  explicit MuxConnection(int fd) : stream_(fd, fd, /*own_fds=*/true) {}

  FdStream stream_;
};

}  // namespace blitz::testing

#endif  // BLITZ_TESTS_SERVE_HARNESS_H_
