// Edge-case tests for the epoll connection multiplexer (serve/mux.h):
// fragmented frames, cross-connection error isolation, mid-frame
// disconnects, the slow-loris write timeout, /statz over the mux,
// serve.epoll.wait fault injection, a 1k-socket SIGTERM-style drain with
// exactly-once response accounting, and 10k open/use/close cycles that
// must leave no connection alive.

#include "serve/mux.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "governor/faultpoints.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/stream.h"
#include "serve/wire.h"
#include "serve_harness.h"

namespace blitz {
namespace {

constexpr char kSmallBjq[] =
    "relation A 100\nrelation B 200\npredicate A B 0.1\n";

using testing::MuxHarness;

TEST(ServeMuxTest, AnswersRequestsAndDrainsCleanly) {
  MuxHarness harness;
  const int fd = harness.Connect();
  FdStream stream(fd, fd, /*own_fds=*/true);
  BlitzClient client(&stream, BlitzClient::Options{});
  Result<ServeReply> reply = client.Optimize(kSmallBjq);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->plan, "(A x B)");
  EXPECT_FALSE(reply->cached);
  Result<ServeReply> again = client.Optimize(kSmallBjq);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cached);
  EXPECT_EQ(again->plan, reply->plan);
  EXPECT_EQ(again->cost, reply->cost);
  stream.Close();
  EXPECT_TRUE(harness.Finish().ok());
}

TEST(ServeMuxTest, ReassemblesByteAtATimeFrames) {
  MuxHarness harness;
  const int fd = harness.Connect();
  RequestFrame frame;
  frame.tenant = "drip";
  frame.id = 7;
  frame.body = kSmallBjq;
  const std::string encoded = EncodeRequestFrame(frame);
  for (char c : encoded) {
    ASSERT_EQ(::send(fd, &c, 1, 0), 1);
    // A short pause every few bytes so the mux really sees fragments.
    if ((c & 3) == 0) std::this_thread::yield();
  }
  FdStream stream(fd, fd, /*own_fds=*/true);
  BlitzClient reader(&stream, BlitzClient::Options{});
  Result<std::optional<ResponseFrame>> response = reader.Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->has_value());
  EXPECT_EQ((*response)->id, 7u);
  EXPECT_EQ((*response)->code, StatusCode::kOk);
  stream.Close();
  EXPECT_TRUE(harness.Finish().ok());
}

TEST(ServeMuxTest, GarbageOnOneConnectionDoesNotPoisonAnother) {
  MuxHarness harness;
  const int bad_fd = harness.Connect();
  const int good_fd = harness.Connect();

  // The good connection starts a legitimate request...
  FdStream good(good_fd, good_fd, /*own_fds=*/true);
  BlitzClient client(&good, BlitzClient::Options{});
  // ...while the bad one interleaves garbage.
  ASSERT_GT(::send(bad_fd, "utter garbage, not a frame\n", 27, 0), 0);

  Result<ServeReply> reply = client.Optimize(kSmallBjq);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->plan, "(A x B)");

  // The bad connection got the id-0 protocol error and was closed.
  FdStream bad(bad_fd, bad_fd, /*own_fds=*/true);
  BlitzClient reader(&bad, BlitzClient::Options{});
  Result<std::optional<ResponseFrame>> response = reader.Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->has_value());
  EXPECT_EQ((*response)->id, 0u);
  EXPECT_EQ((*response)->code, StatusCode::kInvalidArgument);
  Result<std::optional<ResponseFrame>> eof = reader.Receive();
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());

  good.Close();
  EXPECT_TRUE(harness.Finish().ok());
}

TEST(ServeMuxTest, MidFrameDisconnectIsHarmless) {
  MuxHarness harness;
  {
    const int fd = harness.Connect();
    // A header promising 1000 body bytes, then only a few, then gone.
    const std::string partial = "blitzq1 ghost 1 1000\nrelation A";
    ASSERT_GT(::send(fd, partial.data(), partial.size(), 0), 0);
    ::close(fd);
  }
  // The mux must shrug it off and keep serving.
  const int fd = harness.Connect();
  FdStream stream(fd, fd, /*own_fds=*/true);
  BlitzClient client(&stream, BlitzClient::Options{});
  Result<ServeReply> reply = client.Optimize(kSmallBjq);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  stream.Close();
  EXPECT_TRUE(harness.Finish().ok());
}

TEST(ServeMuxTest, StatzIsServedOverTheMux) {
  MuxHarness harness;
  const int fd = harness.Connect();
  FdStream stream(fd, fd, /*own_fds=*/true);
  BlitzClient client(&stream, BlitzClient::Options{});
  ASSERT_TRUE(client.Optimize(kSmallBjq).ok());
  ASSERT_TRUE(client.Optimize(kSmallBjq).ok());  // Warm: a cache hit.
  Result<std::string> statz = client.Statz();
  ASSERT_TRUE(statz.ok()) << statz.status().ToString();
  EXPECT_NE(statz->find("requests_answered 2"), std::string::npos) << *statz;
  EXPECT_NE(statz->find("cache_hits 1"), std::string::npos) << *statz;
  EXPECT_NE(statz->find("cache_inserts 1"), std::string::npos) << *statz;
  stream.Close();
  EXPECT_TRUE(harness.Finish().ok());
}

TEST(ServeMuxTest, SlowLorisPeerForfeitsItsConnection) {
  MuxOptions mux_options;
  mux_options.write_timeout_ms = 200;
  MuxHarness harness(ServerOptions{}, mux_options);

  const int fd = harness.Connect();
  // Shrink the receive window so pending responses overflow the socket.
  const int tiny = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));

  // Pipeline many requests and never read a byte.
  RequestFrame frame;
  frame.tenant = "loris";
  frame.body = kSmallBjq;
  // Enough pipelined responses (~115 B each) to overflow the server side's
  // default unix-socket send buffer, forcing EAGAIN and the stall clock.
  for (std::uint64_t id = 1; id <= 4000; ++id) {
    frame.id = id;
    const std::string encoded = EncodeRequestFrame(frame);
    if (::send(fd, encoded.data(), encoded.size(), MSG_NOSIGNAL) < 0) break;
  }

  // Crucially, do NOT read yet: a loris never does. The pending responses
  // overflow the socket, the mux stalls on EAGAIN, and after
  // write_timeout_ms the connection is killed. Only then drain what was
  // buffered and observe the EOF.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // Closed: the timeout fired.
  }
  ::close(fd);

  // And the rest of the world is unaffected.
  const int good_fd = harness.Connect();
  FdStream stream(good_fd, good_fd, /*own_fds=*/true);
  BlitzClient client(&stream, BlitzClient::Options{});
  EXPECT_TRUE(client.Optimize(kSmallBjq).ok());
  stream.Close();
  EXPECT_TRUE(harness.Finish().ok());
}

TEST(ServeMuxTest, EpollWaitFailStatusFaultDrainsGracefully) {
  FaultRegistry registry;
  ScopedFaultRegistry scoped(&registry);

  MuxHarness harness;
  const int fd = harness.Connect();
  FdStream stream(fd, fd, /*own_fds=*/true);
  BlitzClient client(&stream, BlitzClient::Options{});
  ASSERT_TRUE(client.Optimize(kSmallBjq).ok());

  FaultSpec spec;
  spec.kind = FaultKind::kFailStatus;
  spec.status = Status::Internal("injected epoll failure");
  registry.Arm(kFaultServeEpollWait, spec);

  // The loop hits the fault on its next wait cycle and starts the drain;
  // our connection is closed once everything submitted is answered.
  char buf[256];
  Result<std::size_t> n = stream.Read(buf, sizeof(buf));
  while (n.ok() && *n > 0) n = stream.Read(buf, sizeof(buf));

  const Status served = harness.Finish();
  EXPECT_FALSE(served.ok());
  EXPECT_NE(served.message().find("injected epoll failure"), std::string::npos)
      << served.ToString();
}

TEST(ServeMuxTest, TransientEpollFaultSkipsOneCycleAndKeepsServing) {
  FaultRegistry registry;
  ScopedFaultRegistry scoped(&registry);
  FaultSpec spec;
  spec.kind = FaultKind::kClockSkew;  // Any non-kFailStatus kind: a no-op
  spec.times = 3;                     // cycle, not a drain.
  registry.Arm(kFaultServeEpollWait, spec);

  MuxHarness harness;
  const int fd = harness.Connect();
  FdStream stream(fd, fd, /*own_fds=*/true);
  BlitzClient client(&stream, BlitzClient::Options{});
  Result<ServeReply> reply = client.Optimize(kSmallBjq);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  stream.Close();
  EXPECT_TRUE(harness.Finish().ok());
  EXPECT_GE(registry.hits(kFaultServeEpollWait), 3u);
}

// The headline property: 1k concurrent sockets, one request each, drain
// mid-traffic — every submitted request is answered exactly once and every
// connection sees clean EOF afterwards.
TEST(ServeMuxTest, ThousandSocketDrainAnswersEverythingExactlyOnce) {
  ServerOptions server_options;
  server_options.admission.default_quota.max_in_flight = 4096;
  server_options.max_queue = 4096;
  MuxHarness harness(server_options);

  constexpr int kConns = 1000;
  std::vector<int> fds(kConns, -1);
  RequestFrame frame;
  frame.tenant = "horde";
  frame.body = kSmallBjq;
  for (int i = 0; i < kConns; ++i) {
    fds[i] = harness.Connect();
    frame.id = static_cast<std::uint64_t>(i) + 1;
    const std::string encoded = EncodeRequestFrame(frame);
    ASSERT_EQ(::send(fds[i], encoded.data(), encoded.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(encoded.size()));
  }

  // Drain while traffic is still in flight. A request still sitting in a
  // socket buffer at drain time is legitimately dropped (never admitted),
  // so exactly-once means: no connection sees more than one response, and
  // the total delivered equals the total the server answered.
  std::thread finisher([&harness] { (void)harness.Finish(); });

  int answered = 0;
  for (int i = 0; i < kConns; ++i) {
    FdStream stream(fds[i], fds[i], /*own_fds=*/true);
    BlitzClient reader(&stream, BlitzClient::Options{});
    int responses = 0;
    for (;;) {
      Result<std::optional<ResponseFrame>> response = reader.Receive();
      if (!response.ok()) {
        // A drain-time close that leaves our request unread in the server's
        // receive queue surfaces as ECONNRESET rather than a clean FIN (the
        // request was never admitted, so no response is owed). Any response
        // the server did write was queued before the close and is delivered
        // ahead of the error, so this branch never swallows one.
        EXPECT_EQ(response.status().code(), StatusCode::kUnavailable)
            << "conn " << i << ": " << response.status().ToString();
        break;
      }
      if (!response->has_value()) break;  // Clean EOF.
      if ((*response)->id != 0) {
        EXPECT_EQ((*response)->id, static_cast<std::uint64_t>(i) + 1);
      }
      ++responses;
    }
    EXPECT_LE(responses, 1) << "conn " << i;
    answered += responses;
  }
  finisher.join();
  EXPECT_GE(answered, 1);
  EXPECT_EQ(harness.server()->requests_answered(),
            static_cast<std::uint64_t>(answered));
}

/// The connections_live gauge in a /statz body.
int LiveConnections(BlitzServer* server) {
  const std::string statz = server->StatzBody();
  const std::string key = "\nconnections_live ";
  const std::size_t at = statz.find(key);
  if (at == std::string::npos) return -1;
  return std::atoi(statz.c_str() + at + key.size());
}

// Open, use (one request each) and close 10k connections, at most 500 open
// at once: every request is answered exactly once, and closed connections
// release their server-side state, so the live-connection gauge returns to
// its idle value of zero.
TEST(ServeMuxTest, TenThousandOpenCloseCyclesLeaveNoConnectionAlive) {
  ServerOptions server_options;
  server_options.admission.default_quota.max_in_flight = 1024;
  server_options.max_queue = 1024;
  MuxHarness harness(server_options);
  ASSERT_EQ(LiveConnections(harness.server()), 0);

  constexpr int kConns = 10000;
  constexpr int kBatch = 500;
  RequestFrame frame;
  frame.tenant = "churn";
  frame.body = kSmallBjq;
  std::map<StatusCode, int> codes;
  for (int first = 0; first < kConns; first += kBatch) {
    std::vector<int> fds;
    for (int i = first; i < first + kBatch; ++i) {
      const int fd = harness.Connect();
      ASSERT_GE(fd, 0) << "conn " << i;
      fds.push_back(fd);
      frame.id = static_cast<std::uint64_t>(i) + 1;
      const std::string encoded = EncodeRequestFrame(frame);
      ASSERT_EQ(::send(fd, encoded.data(), encoded.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(encoded.size()));
      ::shutdown(fd, SHUT_WR);
    }
    for (int i = first; i < first + kBatch; ++i) {
      FdStream stream(fds[static_cast<std::size_t>(i - first)],
                      fds[static_cast<std::size_t>(i - first)],
                      /*own_fds=*/true);
      BlitzClient reader(&stream, BlitzClient::Options{});
      Result<std::optional<ResponseFrame>> response = reader.Receive();
      ASSERT_TRUE(response.ok()) << "conn " << i << ": "
                                 << response.status().ToString();
      ASSERT_TRUE(response->has_value()) << "conn " << i;
      EXPECT_EQ((*response)->id, static_cast<std::uint64_t>(i) + 1);
      ++codes[(*response)->code];
      // Exactly once: the server closes after the one answer it owes.
      Result<std::optional<ResponseFrame>> eof = reader.Receive();
      ASSERT_TRUE(eof.ok()) << "conn " << i << ": " << eof.status().ToString();
      EXPECT_FALSE(eof->has_value()) << "conn " << i;
    }
  }
  EXPECT_EQ(codes[StatusCode::kOk], kConns);
  EXPECT_EQ(harness.server()->requests_answered(),
            static_cast<std::uint64_t>(kConns));

  // The mux frees a connection just after closing its socket, so the gauge
  // may trail the clients' EOFs briefly; a leak never catches up.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (LiveConnections(harness.server()) != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(LiveConnections(harness.server()), 0);
  EXPECT_TRUE(harness.Finish().ok());
}

}  // namespace
}  // namespace blitz
