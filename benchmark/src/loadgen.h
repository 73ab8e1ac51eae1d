#ifndef BLITZBENCH_LOADGEN_H_
#define BLITZBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "inputs.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace blitz::bench {

/// Send offsets (seconds from the phase start) of an open loop: a Poisson
/// process of `rate` conditioned on exactly round(rate * seconds) arrivals
/// in the window, so every seed offers the same number of requests.
std::vector<double> PoissonSchedule(double rate, double seconds,
                                    std::uint64_t seed);

/// Distinct OK reply bodies per request body, kept for the verifier. Safe
/// to call from several threads.
class ReplyLog {
 public:
  void Add(std::uint32_t body, std::string_view reply);
  /// (request body, reply body) pairs, each once.
  std::vector<std::pair<std::uint32_t, std::string>> Entries() const;

 private:
  mutable std::mutex mu_;
  std::unordered_set<std::uint64_t> seen_;
  std::vector<std::pair<std::uint32_t, std::string>> entries_;
};

/// What one open-loop phase measured. Latencies run from each request's
/// *scheduled* send time, so a stalled sender shows up in them.
struct PhaseStats {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;      ///< Non-OK replies, sheds included.
  std::uint64_t unanswered = 0;  ///< No reply within the grace period.
  /// Per request, in send order; NaN where no OK reply came back.
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;      ///< How late the sender ran.
  /// First scheduled send to last reply.
  double wall_s = 0;
};

/// One request/response transport the open loop can drive: a spawned
/// blitzd over unix sockets or an in-process BlitzServer.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Sends `frame` without waiting for the reply.
  virtual Status Send(int connection, const RequestFrame& frame) = 0;
  /// Starts delivering replies to `on_reply` (from any thread) until
  /// StopReceiving.
  virtual void StartReceiving(
      std::function<void(const ResponseFrame&)> on_reply) = 0;
  virtual void StopReceiving() = 0;
  virtual int num_connections() const = 0;
};

/// Sends `requests` at `offsets_s` (relative to a start a few milliseconds
/// from now) through `transport`, connection = index mod connections, and
/// collects every reply, waiting up to `grace_s` past the last send.
/// `after_send(k)` runs on the sender thread after the k-th send (window
/// marks, the traced run's statz sampler). Ids start at *next_id and
/// advance it.
PhaseStats RunOpenLoop(Transport* transport, const Inputs& inputs,
                       const std::vector<Request>& requests,
                       const std::vector<double>& offsets_s, double grace_s,
                       std::uint64_t* next_id, ReplyLog* log,
                       const std::function<void(std::size_t)>& after_send =
                           nullptr);

/// Closed loop: each request is sent after the previous reply arrives.
/// Returns the number of non-OK or missing replies.
Result<int> RunClosedLoop(Transport* transport, const Inputs& inputs,
                          const std::vector<Request>& requests,
                          std::uint64_t* next_id, ReplyLog* log);

/// Four unix-socket connections to a blitzd; one receiver thread polls all
/// of them through ResponseFrameAssembler.
class SocketTransport final : public Transport {
 public:
  static Result<std::unique_ptr<SocketTransport>> Connect(
      const std::string& socket, int connections, double timeout_s);
  ~SocketTransport() override;

  Status Send(int connection, const RequestFrame& frame) override;
  void StartReceiving(
      std::function<void(const ResponseFrame&)> on_reply) override;
  void StopReceiving() override;
  int num_connections() const override {
    return static_cast<int>(fds_.size());
  }

 private:
  explicit SocketTransport(std::vector<int> fds);
  void ReceiveLoop();

  std::vector<int> fds_;
  std::vector<ResponseFrameAssembler> assemblers_;
  std::function<void(const ResponseFrame&)> on_reply_;
  std::atomic<bool> receiving_{false};
  std::thread receiver_;
};

/// An in-process BlitzServer driven through OpenConnection/SubmitRequest;
/// replies arrive through a ResponseSink on the submitting thread (cache
/// hits, sheds) or on a worker.
class InProcessTransport final : public Transport {
 public:
  InProcessTransport(BlitzServer* server, int connections);

  Status Send(int connection, const RequestFrame& frame) override;
  void StartReceiving(
      std::function<void(const ResponseFrame&)> on_reply) override;
  void StopReceiving() override;
  int num_connections() const override {
    return static_cast<int>(connections_.size());
  }

 private:
  class Sink;
  BlitzServer* server_;
  std::shared_ptr<Sink> sink_;
  std::vector<std::shared_ptr<ServeConnection>> connections_;
};

/// The server's /statz counters (`<key> <value>` lines), fetched over
/// connection 0 while no phase is running.
Result<std::map<std::string, double>> FetchStatz(Transport* transport,
                                                 std::uint64_t* next_id);
std::map<std::string, double> ParseStatz(std::string_view body);

}  // namespace blitz::bench

#endif  // BLITZBENCH_LOADGEN_H_
