// Tests for the blitz-serve-v1 wire format (serve/wire.h) and the
// FdStream transport underneath it (serve/stream.h). Every framing case
// runs through the chunking invariant: the assembler must yield the same
// frames and the same first error whether the bytes arrive whole, one at a
// time, or split in two at any offset.

#include "serve/wire.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/stream.h"

namespace blitz {
namespace {

RequestFrame MakeRequest(std::uint64_t id, std::string body) {
  RequestFrame frame;
  frame.tenant = "tenant-a";
  frame.id = id;
  frame.body = std::move(body);
  return frame;
}

std::string Encode(const RequestFrame& frame) {
  return EncodeRequestFrame(frame);
}
std::string Encode(const ResponseFrame& frame) {
  return EncodeResponseFrame(frame);
}

/// What an assembler made of one input: its frames, the first error (OK
/// if none), and whether a partial frame was left buffered.
template <typename Header>
struct Assembled {
  std::vector<Header> frames;
  Status error = Status::OK();
  bool mid_frame = false;
};

template <typename Header>
Assembled<Header> FeedChunks(const std::vector<std::string_view>& chunks,
                             const WireLimits& limits) {
  FrameAssembler<Header> assembler(limits);
  Assembled<Header> out;
  for (const std::string_view chunk : chunks) {
    out.error = assembler.Feed(chunk, &out.frames);
    if (!out.error.ok()) break;
  }
  out.mid_frame = assembler.mid_frame();
  return out;
}

template <typename Header>
void ExpectSame(const Assembled<Header>& want, const Assembled<Header>& got,
                const std::string& how) {
  ASSERT_EQ(got.frames.size(), want.frames.size()) << how;
  for (std::size_t i = 0; i < want.frames.size(); ++i) {
    EXPECT_EQ(Encode(got.frames[i]), Encode(want.frames[i]))
        << how << ", frame " << i;
  }
  EXPECT_EQ(got.error.code(), want.error.code()) << how;
  EXPECT_EQ(got.error.message(), want.error.message()) << how;
  if (want.error.ok()) {
    EXPECT_EQ(got.mid_frame, want.mid_frame) << how;
  }
}

/// Assembles `wire` fed whole, one byte at a time, and split in two at
/// every offset; expects all of them to agree and returns the result.
template <typename Header>
Assembled<Header> AssembleEveryChunking(std::string_view wire,
                                        const WireLimits& limits = {}) {
  const Assembled<Header> whole = FeedChunks<Header>({wire}, limits);
  std::vector<std::string_view> bytes;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    bytes.push_back(wire.substr(i, 1));
  }
  ExpectSame(whole, FeedChunks<Header>(bytes, limits), "byte at a time");
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    ExpectSame(whole,
               FeedChunks<Header>({wire.substr(0, split), wire.substr(split)},
                                  limits),
               "split at " + std::to_string(split));
  }
  return whole;
}

TEST(WireTest, RequestRoundTrip) {
  RequestFrame frame = MakeRequest(42, "relation A 10\n");
  frame.deadline_ms = 250;
  const Assembled<RequestFrame> read =
      AssembleEveryChunking<RequestFrame>(EncodeRequestFrame(frame));
  ASSERT_TRUE(read.error.ok()) << read.error.ToString();
  ASSERT_EQ(read.frames.size(), 1u);
  EXPECT_EQ(read.frames[0].tenant, "tenant-a");
  EXPECT_EQ(read.frames[0].id, 42u);
  EXPECT_EQ(read.frames[0].deadline_ms, 250);
  EXPECT_EQ(read.frames[0].body, "relation A 10\n");
  // Nothing left over: EOF here is clean, at a frame boundary.
  EXPECT_FALSE(read.mid_frame);
}

TEST(WireTest, ResponseRoundTripWithRetryAfter) {
  ResponseFrame frame;
  frame.id = 7;
  frame.code = StatusCode::kResourceExhausted;
  frame.retry_after_ms = 12.5;
  frame.body = "tenant over quota";
  const Assembled<ResponseFrame> read =
      AssembleEveryChunking<ResponseFrame>(EncodeResponseFrame(frame));
  ASSERT_TRUE(read.error.ok()) << read.error.ToString();
  ASSERT_EQ(read.frames.size(), 1u);
  EXPECT_EQ(read.frames[0].id, 7u);
  EXPECT_EQ(read.frames[0].code, StatusCode::kResourceExhausted);
  EXPECT_EQ(read.frames[0].retry_after_ms, 12.5);
  EXPECT_EQ(read.frames[0].body, "tenant over quota");
}

TEST(WireTest, PipelinedFramesReadBackToBack) {
  std::string wire;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    wire += EncodeRequestFrame(MakeRequest(id, "body" + std::to_string(id)));
  }
  wire += EncodeRequestFrame(MakeRequest(6, ""));  // Empty bodies frame too.
  const Assembled<RequestFrame> read =
      AssembleEveryChunking<RequestFrame>(wire);
  ASSERT_TRUE(read.error.ok()) << read.error.ToString();
  ASSERT_EQ(read.frames.size(), 6u);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(read.frames[id - 1].id, id);
    EXPECT_EQ(read.frames[id - 1].body, "body" + std::to_string(id));
  }
  EXPECT_TRUE(read.frames[5].body.empty());
  EXPECT_FALSE(read.mid_frame);
}

TEST(WireTest, TrailingPartialFrameStaysBuffered) {
  const std::string frame = EncodeRequestFrame(MakeRequest(1, "abcd"));
  // A partial header, and a complete header with part of its body.
  for (const std::string& partial :
       {std::string("blitzq1 tenant-a"), frame.substr(0, frame.size() - 2)}) {
    const Assembled<RequestFrame> read =
        AssembleEveryChunking<RequestFrame>(frame + partial);
    ASSERT_TRUE(read.error.ok()) << read.error.ToString();
    EXPECT_EQ(read.frames.size(), 1u);
    // EOF now would be mid-frame: a connection-level error.
    EXPECT_TRUE(read.mid_frame) << partial;
  }
}

TEST(WireTest, MalformedHeadersAreErrors) {
  const std::vector<std::string> bad = {
      "blitzq2 default 1 0\n",              // wrong magic
      "blitzq1 default 1\n",                // missing body length
      "blitzq1 default one 0\n",            // non-numeric id
      "blitzq1 default 1 zero\n",           // non-numeric length
      "blitzq1 bad~tenant 1 0\n",           // invalid tenant character
      "blitzq1 default 1 0 frobnicate=1\n", // unknown optional field
      "blitzq1 default 1 0 deadline_ms=-5\n",
      "blitzq1 default 99999999999999999999999 0\n",  // uint64 overflow
  };
  for (const std::string& header : bad) {
    // A good frame first: it is delivered before the error.
    const Assembled<RequestFrame> read = AssembleEveryChunking<RequestFrame>(
        EncodeRequestFrame(MakeRequest(1, "x")) + header);
    EXPECT_EQ(read.error.code(), StatusCode::kInvalidArgument)
        << "accepted: " << header;
    EXPECT_EQ(read.frames.size(), 1u) << header;
  }
  const Assembled<ResponseFrame> read =
      AssembleEveryChunking<ResponseFrame>("blitzr1 1 NotACode 0\n");
  EXPECT_EQ(read.error.code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, TenantNameValidation) {
  EXPECT_TRUE(IsValidTenantName("default"));
  EXPECT_TRUE(IsValidTenantName("team-7.shard_2"));
  EXPECT_TRUE(IsValidTenantName(std::string(64, 'a')));
  EXPECT_FALSE(IsValidTenantName(""));
  EXPECT_FALSE(IsValidTenantName(std::string(65, 'a')));
  EXPECT_FALSE(IsValidTenantName("has space"));    // Splits the header.
  EXPECT_FALSE(IsValidTenantName("has\nnewline"));  // Ends the header.
  EXPECT_FALSE(IsValidTenantName("bad~tenant"));
}

TEST(WireTest, OversizedDeclaredBodyRejectedBeforeReading) {
  // Declares 1 GiB; only the header is ever sent. The assembler must
  // reject from the declared length alone instead of trying to buffer it.
  WireLimits limits;
  limits.max_body_bytes = 1 << 20;
  const Assembled<RequestFrame> read = AssembleEveryChunking<RequestFrame>(
      "blitzq1 default 1 1073741824\n", limits);
  EXPECT_EQ(read.error.code(), StatusCode::kResourceExhausted);
}

TEST(WireTest, UnterminatedHeaderBoundedByLimit) {
  WireLimits limits;
  limits.max_header_bytes = 256;
  const Assembled<RequestFrame> read =
      AssembleEveryChunking<RequestFrame>(std::string(4096, 'x'), limits);
  EXPECT_EQ(read.error.code(), StatusCode::kInvalidArgument);
  // The same limit binds when the newline does arrive, too late.
  const Assembled<RequestFrame> late = AssembleEveryChunking<RequestFrame>(
      std::string(300, 'x') + "\n", limits);
  EXPECT_EQ(late.error.code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, StatusCodeNamesRoundTripTheWire) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kResourceExhausted, StatusCode::kDeadlineExceeded,
        StatusCode::kCancelled, StatusCode::kUnavailable}) {
    ResponseFrame frame;
    frame.id = 1;
    frame.code = code;
    const Assembled<ResponseFrame> read =
        AssembleEveryChunking<ResponseFrame>(EncodeResponseFrame(frame));
    ASSERT_EQ(read.frames.size(), 1u);
    EXPECT_EQ(read.frames[0].code, code) << StatusCodeToString(code);
  }
}

TEST(WireTest, ReplyBodyRoundTrip) {
  ServeReply reply;
  reply.plan = "((A x B) x C)";
  reply.cost = 12345.6789;
  reply.tier = "exhaustive";
  reply.passes = 3;
  reply.degradations = 1;
  Result<ServeReply> parsed = ParseReplyBody(EncodeReplyBody(reply));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->plan, reply.plan);
  EXPECT_EQ(parsed->cost, reply.cost);  // %.17g round-trips doubles exactly.
  EXPECT_EQ(parsed->tier, reply.tier);
  EXPECT_EQ(parsed->passes, reply.passes);
  EXPECT_EQ(parsed->degradations, reply.degradations);
}

TEST(WireTest, ReplyBodyIgnoresUnknownKeysButRequiresCore) {
  Result<ServeReply> ok =
      ParseReplyBody("plan (A x B)\ncost 5\ntier greedy\nfuture_field 1\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->plan, "(A x B)");

  EXPECT_FALSE(ParseReplyBody("cost 5\ntier greedy\n").ok());
  EXPECT_FALSE(ParseReplyBody("plan p\ncost nan-ish\ntier greedy\n").ok());
}

TEST(WireTest, ReplyBodyCachedFlagRoundTrips) {
  ServeReply reply;
  reply.plan = "(A x B)";
  reply.cost = 9.5;
  reply.tier = "exhaustive";
  reply.cached = true;
  const std::string body = EncodeReplyBody(reply);
  Result<ServeReply> parsed = ParseReplyBody(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->cached);

  // Fresh answers omit the line entirely (not "cached 0"), so pre-cache
  // readers never see an unfamiliar key on the common path.
  reply.cached = false;
  const std::string fresh = EncodeReplyBody(reply);
  EXPECT_EQ(fresh.find("cached"), std::string::npos) << fresh;
  Result<ServeReply> fresh_parsed = ParseReplyBody(fresh);
  ASSERT_TRUE(fresh_parsed.ok());
  EXPECT_FALSE(fresh_parsed->cached);
}

TEST(AssemblerTest, ErrorsPoisonTheAssembler) {
  WireLimits limits;
  limits.max_header_bytes = 32;
  RequestFrameAssembler assembler{limits};
  std::vector<RequestFrame> frames;
  const std::string runaway(64, 'x');  // No '\n' within the limit.
  const Status status = assembler.Feed(runaway, &frames);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(frames.empty());

  // Error stickiness: a valid frame after the poison still fails with the
  // original error — the stream is no longer frame-aligned.
  const Status again =
      assembler.Feed(EncodeRequestFrame(MakeRequest(1, "")), &frames);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), status.code());
  EXPECT_TRUE(frames.empty());
}

TEST(AssemblerTest, MidFrameStateTracksHeaderAndBodyPhases) {
  RequestFrameAssembler assembler{WireLimits{}};
  std::vector<RequestFrame> frames;
  EXPECT_FALSE(assembler.mid_frame());

  ASSERT_TRUE(assembler.Feed("blitzq1 tenant-a 7 4\n", &frames).ok());
  EXPECT_TRUE(assembler.mid_frame());  // Header done, body pending.
  ASSERT_TRUE(assembler.Feed("ab", &frames).ok());
  EXPECT_TRUE(assembler.mid_frame());
  ASSERT_TRUE(assembler.Feed("cd", &frames).ok());
  EXPECT_FALSE(assembler.mid_frame());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].body, "abcd");
}

TEST(StreamTest, WriteAfterPeerCloseIsUnavailable) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FdStream a(fds[0], fds[0], /*own_fds=*/true);
  ::close(fds[1]);
  Status written = a.Write("x");
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kUnavailable);
}

TEST(StreamTest, FdStreamCarriesFramesOverAPipePair) {
  int to_server[2];
  int to_client[2];
  ASSERT_EQ(::pipe(to_server), 0);
  ASSERT_EQ(::pipe(to_client), 0);
  FdStream client(to_client[0], to_server[1], /*own_fds=*/true);
  FdStream server(to_server[0], to_client[1], /*own_fds=*/true);

  ASSERT_TRUE(client.Write(EncodeRequestFrame(MakeRequest(9, "abc"))).ok());
  client.CloseWrite();
  RequestFrameAssembler assembler{WireLimits{}};
  std::vector<RequestFrame> frames;
  char buf[8];  // Smaller than the frame: it arrives in pieces.
  for (;;) {
    Result<std::size_t> n = server.Read(buf, sizeof(buf));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    if (*n == 0) break;  // CloseWrite reached the server as EOF.
    ASSERT_TRUE(assembler.Feed(std::string_view(buf, *n), &frames).ok());
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].id, 9u);
  EXPECT_EQ(frames[0].body, "abc");
  EXPECT_FALSE(assembler.mid_frame());
}

TEST(StreamTest, FdStreamWriteTimesOutOnAStalledPipePeer) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  FdStream writer(/*read_fd=*/-1, fds[1], /*own_fds=*/false, /*wake_fd=*/-1,
                  /*write_timeout_ms=*/50);
  // Nobody reads fds[0]: a write larger than the pipe's buffer must fail
  // with kUnavailable after the timeout instead of blocking forever.
  Status written = writer.Write(std::string(4 << 20, 'x'));
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kUnavailable);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(StreamTest, FdStreamWriteTimesOutOnAStalledSocketPeer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FdStream writer(fds[0], fds[0], /*own_fds=*/true, /*wake_fd=*/-1,
                  /*write_timeout_ms=*/50);
  // The peer never reads: the send buffer fills and the bounded poll for
  // POLLOUT expires — the stalled-client case that must not park a server
  // worker (and the SIGTERM drain behind it) indefinitely.
  Status written = writer.Write(std::string(4 << 20, 'x'));
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kUnavailable);
  ::close(fds[1]);
}

TEST(StreamTest, FdStreamBoundedWriteSucceedsWithAReadingPeer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FdStream writer(fds[0], fds[0], /*own_fds=*/true, /*wake_fd=*/-1,
                  /*write_timeout_ms=*/5000);
  const std::string payload(4 << 20, 'y');
  std::thread reader([&] {
    std::size_t total = 0;
    char buf[65536];
    while (total < payload.size()) {
      const ssize_t n = ::read(fds[1], buf, sizeof(buf));
      ASSERT_GT(n, 0);
      total += static_cast<std::size_t>(n);
    }
  });
  // A healthy (if slow) peer never trips the timeout, however large the
  // payload relative to the socket buffer.
  EXPECT_TRUE(writer.Write(payload).ok());
  reader.join();
  ::close(fds[1]);
}

}  // namespace
}  // namespace blitz
