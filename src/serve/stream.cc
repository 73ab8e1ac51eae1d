#include "serve/stream.h"

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>

#include <limits.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "common/strings.h"

#ifndef PIPE_BUF
#define PIPE_BUF 512  // The POSIX minimum.
#endif

namespace blitz {

namespace {

/// Whole milliseconds until `deadline`, clamped into [0, INT_MAX] for
/// poll(2). 0 means the deadline has passed.
int MsUntil(std::chrono::steady_clock::time_point deadline) {
  const long long left =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now())
          .count();
  if (left <= 0) return 0;
  return static_cast<int>(std::min<long long>(left, INT_MAX));
}

}  // namespace

FdStream::FdStream(int read_fd, int write_fd, bool own_fds, int wake_fd,
                   double write_timeout_ms)
    : read_fd_(read_fd),
      write_fd_(write_fd),
      own_fds_(own_fds),
      wake_fd_(wake_fd),
      write_timeout_ms_(write_timeout_ms) {}

FdStream::~FdStream() { Close(); }

Result<std::size_t> FdStream::Read(char* buf, std::size_t len) {
  for (;;) {
    if (read_fd_ < 0) return std::size_t{0};
    if (wake_fd_ >= 0) {
      // Wait for data or the wake signal; the wake side wins ties so a
      // drain request is honored even under a steady request stream.
      struct pollfd fds[2];
      fds[0] = {wake_fd_, POLLIN, 0};
      fds[1] = {read_fd_, POLLIN, 0};
      const int ready = ::poll(fds, 2, -1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(StrFormat("poll: %s", std::strerror(errno)));
      }
      if (fds[0].revents != 0) return std::size_t{0};  // Drain requested.
      if ((fds[1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    }
    const ssize_t n = ::read(read_fd_, buf, len);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    return Status::Unavailable(StrFormat("read: %s", std::strerror(errno)));
  }
}

Status FdStream::Write(std::string_view data) {
  const bool bounded = write_timeout_ms_ > 0;
  const std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              bounded ? write_timeout_ms_ : 0));
  const auto timed_out = [&] {
    return Status::Unavailable(
        StrFormat("write timed out after %g ms (peer not reading)",
                  write_timeout_ms_));
  };
  while (!data.empty()) {
    if (write_fd_ < 0) return Status::Unavailable("stream closed");
    ssize_t n;
    if (socket_send_) {
      // MSG_DONTWAIT turns "peer stopped reading" into EAGAIN handled by
      // the bounded poll below, instead of an unbounded block inside
      // send(2) that neither the wake fd nor a cancellation token can
      // interrupt.
      n = ::send(write_fd_, data.data(), data.size(),
                 MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0 && errno == ENOTSOCK) {
        socket_send_ = false;  // A pipe or file: take the write(2) path.
        continue;
      }
    } else if (bounded) {
      // POLLOUT on a pipe guarantees PIPE_BUF bytes of space, so a write
      // chunked to that after a successful poll cannot block.
      const int wait_ms = MsUntil(deadline);
      if (wait_ms == 0) return timed_out();
      struct pollfd pfd = {write_fd_, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, wait_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(StrFormat("poll: %s", std::strerror(errno)));
      }
      if (ready == 0) return timed_out();
      n = ::write(write_fd_, data.data(),
                  std::min<std::size_t>(data.size(), PIPE_BUF));
    } else {
      n = ::write(write_fd_, data.data(), data.size());
    }
    if (n > 0) {
      data.remove_prefix(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Socket send buffer full: wait for space, bounded when configured.
      int wait_ms = -1;
      if (bounded) {
        wait_ms = MsUntil(deadline);
        if (wait_ms == 0) return timed_out();
      }
      struct pollfd pfd = {write_fd_, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, wait_ms);
      if (ready < 0 && errno != EINTR) {
        return Status::Internal(StrFormat("poll: %s", std::strerror(errno)));
      }
      if (bounded && ready == 0) return timed_out();
      continue;
    }
    return Status::Unavailable(StrFormat("write: %s", std::strerror(errno)));
  }
  return Status::OK();
}

void FdStream::CloseWrite() {
  if (write_fd_ < 0) return;
  if (write_fd_ == read_fd_) {
    // A socket: shut down just the send side so responses already in the
    // peer's buffer stay readable.
    ::shutdown(write_fd_, SHUT_WR);
    return;
  }
  if (own_fds_) ::close(write_fd_);
  write_fd_ = -1;
}

void FdStream::Close() {
  if (own_fds_) {
    if (write_fd_ >= 0 && write_fd_ != read_fd_) ::close(write_fd_);
    if (read_fd_ >= 0) ::close(read_fd_);
  }
  read_fd_ = -1;
  write_fd_ = -1;
}

}  // namespace blitz
