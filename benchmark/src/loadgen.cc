#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <optional>

#include "common/rng.h"
#include "common/strings.h"
#include "daemon.h"

namespace blitz::bench {
namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sleeps until steady-clock time `ns` (CLOCK_MONOTONIC, absolute, so a
/// late wake-up does not push the rest of the schedule back).
void SleepUntilNs(std::int64_t ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1000000000);
  ts.tv_nsec = static_cast<long>(ns % 1000000000);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// Replies of the phase in flight, indexed by request.
struct Completions {
  explicit Completions(std::size_t n) : recv_ns(n, 0), codes(n) {}
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  std::vector<std::int64_t> recv_ns;  ///< 0 = no reply yet.
  std::vector<StatusCode> codes;
};

}  // namespace

std::vector<double> PoissonSchedule(double rate, double seconds,
                                    std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  Rng rng(seed);
  std::vector<double> offsets(n);
  double sum = 0;
  for (std::size_t j = 0; j < n; ++j) {
    sum += -std::log1p(-rng.NextDouble());
    offsets[j] = sum;
  }
  sum += -std::log1p(-rng.NextDouble());  // The gap after the last arrival.
  for (double& t : offsets) t *= seconds / sum;
  return offsets;
}

void ReplyLog::Add(std::uint32_t body, std::string_view reply) {
  const std::uint64_t key =
      std::hash<std::string_view>{}(reply) ^ (body * 0x9e3779b97f4a7c15ULL);
  std::lock_guard<std::mutex> lock(mu_);
  if (seen_.insert(key).second) entries_.emplace_back(body, reply);
}

std::vector<std::pair<std::uint32_t, std::string>> ReplyLog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

PhaseStats RunOpenLoop(Transport* transport, const Inputs& inputs,
                       const std::vector<Request>& requests,
                       const std::vector<double>& offsets_s, double grace_s,
                       std::uint64_t* next_id, ReplyLog* log,
                       const std::function<void(std::size_t)>& after_send) {
  const std::size_t n = requests.size();
  const std::uint64_t base = *next_id;
  *next_id += n;
  Completions done(n);
  transport->StartReceiving([&](const ResponseFrame& reply) {
    if (reply.id < base || reply.id >= base + n) return;  // A late straggler.
    const std::size_t j = reply.id - base;
    const std::int64_t now = NowNs();
    if (reply.code == StatusCode::kOk && log != nullptr) {
      log->Add(requests[j].body, reply.body);
    }
    std::lock_guard<std::mutex> lock(done.mu);
    if (done.recv_ns[j] != 0) return;
    done.recv_ns[j] = now;
    done.codes[j] = reply.code;
    if (++done.done == n) done.cv.notify_all();
  });

  PhaseStats stats;
  stats.lag_ms.reserve(n);
  const std::int64_t start = NowNs() + 20'000'000;
  std::vector<std::int64_t> due(n);
  const int connections = transport->num_connections();
  RequestFrame frame;
  for (std::size_t j = 0; j < n; ++j) {
    due[j] = start + static_cast<std::int64_t>(offsets_s[j] * 1e9);
    SleepUntilNs(due[j]);
    frame.tenant = inputs.tenant(requests[j].tenant);
    frame.id = base + j;
    frame.body = inputs.body(requests[j].body);
    stats.lag_ms.push_back(static_cast<double>(NowNs() - due[j]) / 1e6);
    if (transport->Send(static_cast<int>(j % connections), frame).ok()) {
      ++stats.sent;
    }
    if (after_send) after_send(j + 1);
  }
  {
    std::unique_lock<std::mutex> lock(done.mu);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double>(grace_s));
    done.cv.wait_until(lock, deadline, [&] { return done.done == n; });
  }
  transport->StopReceiving();

  std::int64_t last = start;
  stats.latency_ms.assign(n, std::nan(""));
  for (std::size_t j = 0; j < n; ++j) {
    if (done.recv_ns[j] == 0) {
      ++stats.unanswered;
    } else if (done.codes[j] != StatusCode::kOk) {
      ++stats.errors;
    } else {
      ++stats.ok;
      stats.latency_ms[j] = static_cast<double>(done.recv_ns[j] - due[j]) / 1e6;
    }
    last = std::max(last, done.recv_ns[j]);
  }
  stats.wall_s = static_cast<double>(last - start) / 1e9;
  return stats;
}

Result<int> RunClosedLoop(Transport* transport, const Inputs& inputs,
                          const std::vector<Request>& requests,
                          std::uint64_t* next_id, ReplyLog* log) {
  std::mutex mu;
  std::condition_variable cv;
  std::optional<ResponseFrame> reply;
  std::uint64_t waiting_for = 0;
  transport->StartReceiving([&](const ResponseFrame& frame) {
    std::lock_guard<std::mutex> lock(mu);
    if (frame.id != waiting_for) return;
    reply = frame;
    cv.notify_all();
  });
  int failed = 0;
  Status status = Status::OK();
  for (const Request& request : requests) {
    RequestFrame frame;
    frame.tenant = inputs.tenant(request.tenant);
    frame.body = inputs.body(request.body);
    {
      std::lock_guard<std::mutex> lock(mu);
      frame.id = waiting_for = (*next_id)++;
      reply.reset();
    }
    status = transport->Send(0, frame);
    if (!status.ok()) break;
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(60),
                     [&] { return reply.has_value(); })) {
      status = Status::Unavailable("no reply within 60 s");
      break;
    }
    if (reply->code != StatusCode::kOk) {
      ++failed;
    } else if (log != nullptr) {
      log->Add(request.body, reply->body);
    }
  }
  transport->StopReceiving();
  if (!status.ok()) return status;
  return failed;
}

Result<std::map<std::string, double>> FetchStatz(Transport* transport,
                                                 std::uint64_t* next_id) {
  std::mutex mu;
  std::condition_variable cv;
  std::optional<ResponseFrame> reply;
  RequestFrame frame;
  frame.id = (*next_id)++;
  frame.body = std::string(kStatzBody);
  transport->StartReceiving([&](const ResponseFrame& r) {
    std::lock_guard<std::mutex> lock(mu);
    if (r.id != frame.id) return;
    reply = r;
    cv.notify_all();
  });
  Status status = transport->Send(0, frame);
  bool answered = false;
  if (status.ok()) {
    std::unique_lock<std::mutex> lock(mu);
    answered = cv.wait_for(lock, std::chrono::seconds(10),
                           [&] { return reply.has_value(); });
  }
  transport->StopReceiving();
  if (!status.ok()) return status;
  if (!answered || reply->code != StatusCode::kOk) {
    return Status::Unavailable("statz request failed");
  }
  return ParseStatz(reply->body);
}

std::map<std::string, double> ParseStatz(std::string_view body) {
  std::map<std::string, double> out;
  for (const std::string& line : StrSplit(body, '\n')) {
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    double value = 0;
    if (ParseDouble(line.substr(space + 1), &value)) {
      out[line.substr(0, space)] = value;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// SocketTransport

Result<std::unique_ptr<SocketTransport>> SocketTransport::Connect(
    const std::string& socket, int connections, double timeout_s) {
  std::vector<int> fds;
  for (int i = 0; i < connections; ++i) {
    Result<int> fd = ConnectUnix(socket, timeout_s);
    if (!fd.ok()) {
      for (int open : fds) ::close(open);
      return fd.status();
    }
    fds.push_back(*fd);
  }
  return std::unique_ptr<SocketTransport>(new SocketTransport(std::move(fds)));
}

SocketTransport::SocketTransport(std::vector<int> fds) : fds_(std::move(fds)) {
  for (std::size_t i = 0; i < fds_.size(); ++i) {
    assemblers_.emplace_back(WireLimits{});
  }
}

SocketTransport::~SocketTransport() {
  StopReceiving();
  for (int fd : fds_) ::close(fd);
}

Status SocketTransport::Send(int connection, const RequestFrame& frame) {
  const std::string bytes = EncodeRequestFrame(frame);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fds_[connection], bytes.data() + off,
                             bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::Unavailable(StrFormat("send: %s", std::strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

void SocketTransport::StartReceiving(
    std::function<void(const ResponseFrame&)> on_reply) {
  StopReceiving();
  on_reply_ = std::move(on_reply);
  receiving_ = true;
  receiver_ = std::thread([this] { ReceiveLoop(); });
}

void SocketTransport::StopReceiving() {
  receiving_ = false;
  if (receiver_.joinable()) receiver_.join();
}

void SocketTransport::ReceiveLoop() {
  std::vector<pollfd> polls;
  for (int fd : fds_) polls.push_back(pollfd{fd, POLLIN, 0});
  std::vector<char> buffer(1 << 16);
  std::vector<ResponseFrame> frames;
  while (receiving_) {
    if (::poll(polls.data(), polls.size(), 10) <= 0) continue;
    for (std::size_t c = 0; c < polls.size(); ++c) {
      if ((polls[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::read(fds_[c], buffer.data(), buffer.size());
      if (n <= 0) {
        // The daemon went away: stop polling this connection; its
        // requests count as unanswered.
        polls[c].fd = -1;
        continue;
      }
      frames.clear();
      if (!assemblers_[c]
               .Feed(std::string_view(buffer.data(),
                                      static_cast<std::size_t>(n)),
                     &frames)
               .ok()) {
        polls[c].fd = -1;
        continue;
      }
      for (const ResponseFrame& frame : frames) on_reply_(frame);
    }
  }
}

// ---------------------------------------------------------------------------
// InProcessTransport

class InProcessTransport::Sink final : public ResponseSink {
 public:
  void SendResponse(const ResponseFrame& response) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (on_reply_) on_reply_(response);
  }
  void Set(std::function<void(const ResponseFrame&)> on_reply) {
    std::lock_guard<std::mutex> lock(mu_);
    on_reply_ = std::move(on_reply);
  }

 private:
  std::mutex mu_;
  std::function<void(const ResponseFrame&)> on_reply_;
};

InProcessTransport::InProcessTransport(BlitzServer* server, int connections)
    : server_(server), sink_(std::make_shared<Sink>()) {
  for (int i = 0; i < connections; ++i) {
    connections_.push_back(server_->OpenConnection(sink_));
  }
}

Status InProcessTransport::Send(int connection, const RequestFrame& frame) {
  server_->SubmitRequest(connections_[connection], frame);
  return Status::OK();
}

void InProcessTransport::StartReceiving(
    std::function<void(const ResponseFrame&)> on_reply) {
  sink_->Set(std::move(on_reply));
}

void InProcessTransport::StopReceiving() { sink_->Set(nullptr); }

}  // namespace blitz::bench
