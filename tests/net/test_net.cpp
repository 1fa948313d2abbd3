// Wire-format and adversarial-channel tests.
#include <gtest/gtest.h>

#include "net/channel.hpp"

namespace neuropuls::net {
namespace {

TEST(MessageCodec, RoundTrip) {
  const Message m{MessageType::kAuthResponse, 0x1122334455667788ULL,
                  crypto::bytes_of("payload")};
  const auto wire = encode_message(m);
  EXPECT_EQ(decode_message(wire), m);
}

TEST(MessageCodec, EmptyPayload) {
  const Message m{MessageType::kAuthRequest, 7, {}};
  EXPECT_EQ(decode_message(encode_message(m)), m);
}

TEST(MessageCodec, RejectsTruncation) {
  const auto wire = encode_message({MessageType::kData, 1, crypto::Bytes(10, 0)});
  EXPECT_THROW(decode_message(crypto::ByteView(wire).first(12)),
               std::runtime_error);
  EXPECT_THROW(decode_message(crypto::ByteView(wire).first(wire.size() - 1)),
               std::runtime_error);
}

TEST(MessageCodec, RejectsLengthMismatch) {
  auto wire = encode_message({MessageType::kData, 1, crypto::Bytes(4, 0)});
  wire.push_back(0x00);  // trailing garbage
  EXPECT_THROW(decode_message(wire), std::runtime_error);
}

TEST(MessageCodec, TypeNamesCoverEnum) {
  EXPECT_EQ(message_type_name(MessageType::kAuthRequest), "auth-request");
  EXPECT_EQ(message_type_name(MessageType::kError), "error");
  EXPECT_EQ(message_type_name(static_cast<MessageType>(99)), "unknown");
}

TEST(Channel, DeliversInOrder) {
  DuplexChannel channel;
  channel.send(Direction::kAtoB, {MessageType::kData, 1, {0x01}});
  channel.send(Direction::kAtoB, {MessageType::kData, 2, {0x02}});
  EXPECT_EQ(channel.pending(Direction::kAtoB), 2u);
  EXPECT_EQ(channel.receive(Direction::kAtoB)->session_id, 1u);
  EXPECT_EQ(channel.receive(Direction::kAtoB)->session_id, 2u);
  EXPECT_FALSE(channel.receive(Direction::kAtoB).has_value());
}

TEST(Channel, DirectionsAreIndependent) {
  DuplexChannel channel;
  channel.send(Direction::kAtoB, {MessageType::kData, 1, {}});
  EXPECT_FALSE(channel.receive(Direction::kBtoA).has_value());
  EXPECT_TRUE(channel.receive(Direction::kAtoB).has_value());
}

TEST(Channel, AdversaryCanDrop) {
  DuplexChannel channel;
  channel.set_adversary([](Direction, const Message&) {
    return Verdict::drop();
  });
  channel.send(Direction::kAtoB, {MessageType::kData, 1, {}});
  EXPECT_FALSE(channel.receive(Direction::kAtoB).has_value());
  ASSERT_EQ(channel.transcript().size(), 1u);
  EXPECT_FALSE(channel.transcript()[0].delivered);
}

TEST(Channel, AdversaryCanReplace) {
  DuplexChannel channel;
  channel.set_adversary([](Direction, const Message& m) {
    Message forged = m;
    forged.payload = crypto::bytes_of("forged");
    return Verdict::replace(forged);
  });
  channel.send(Direction::kAtoB, {MessageType::kData, 1, crypto::bytes_of("real")});
  const auto received = channel.receive(Direction::kAtoB);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->payload, crypto::bytes_of("forged"));
}

TEST(Channel, InjectBypassesAdversary) {
  DuplexChannel channel;
  int intercepted = 0;
  channel.set_adversary([&](Direction, const Message&) {
    ++intercepted;
    return Verdict::pass();
  });
  channel.inject(Direction::kBtoA, {MessageType::kData, 9, {}});
  EXPECT_EQ(intercepted, 0);
  EXPECT_TRUE(channel.receive(Direction::kBtoA).has_value());
}

TEST(Channel, TranscriptRecordsEverything) {
  DuplexChannel channel;
  channel.send(Direction::kAtoB, {MessageType::kAuthRequest, 1, {}});
  channel.send(Direction::kBtoA, {MessageType::kAuthResponse, 1, {}});
  ASSERT_EQ(channel.transcript().size(), 2u);
  EXPECT_EQ(channel.transcript()[0].direction, Direction::kAtoB);
  EXPECT_EQ(channel.transcript()[1].direction, Direction::kBtoA);
}

TEST(ChannelLimits, FullInboxDropsWithStatInsteadOfGrowing) {
  ChannelLimits limits;
  limits.max_inbox_frames = 2;
  DuplexChannel channel(limits);
  for (std::uint64_t i = 0; i < 5; ++i) {
    channel.send(Direction::kAtoB, {MessageType::kData, i, {}});
  }
  EXPECT_EQ(channel.pending(Direction::kAtoB), 2u);
  EXPECT_EQ(channel.shed_stats(Direction::kAtoB).dropped_overflow, 3u);
  // The shed frames are still visible in the transcript, as undelivered.
  ASSERT_EQ(channel.transcript().size(), 5u);
  EXPECT_TRUE(channel.transcript()[1].delivered);
  EXPECT_FALSE(channel.transcript()[4].delivered);
  // Draining the inbox re-opens capacity for new traffic.
  ASSERT_TRUE(channel.receive(Direction::kAtoB).has_value());
  channel.send(Direction::kAtoB, {MessageType::kData, 9, {}});
  EXPECT_EQ(channel.pending(Direction::kAtoB), 2u);
  EXPECT_EQ(channel.shed_stats(Direction::kAtoB).dropped_overflow, 3u);
}

TEST(ChannelLimits, OversizedFrameNeverEnqueues) {
  ChannelLimits limits;
  limits.max_frame_bytes = 16;
  DuplexChannel channel(limits);
  channel.send(Direction::kBtoA, {MessageType::kData, 1, crypto::Bytes(17, 0xFF)});
  EXPECT_FALSE(channel.readable(Direction::kBtoA));
  EXPECT_EQ(channel.shed_stats(Direction::kBtoA).dropped_oversized, 1u);
  channel.send(Direction::kBtoA, {MessageType::kData, 2, crypto::Bytes(16, 0x01)});
  EXPECT_TRUE(channel.readable(Direction::kBtoA));
}

TEST(ChannelLimits, TranscriptCapCountsInsteadOfStoring) {
  ChannelLimits limits;
  limits.max_transcript_frames = 3;
  DuplexChannel channel(limits);
  for (std::uint64_t i = 0; i < 6; ++i) {
    channel.send(Direction::kAtoB, {MessageType::kData, i, {}});
  }
  EXPECT_EQ(channel.transcript().size(), 3u);
  EXPECT_EQ(channel.shed_stats(Direction::kAtoB).transcript_truncated, 3u);
  // Delivery is unaffected: all six frames are still readable.
  EXPECT_EQ(channel.pending(Direction::kAtoB), 6u);
}

TEST(ChannelLimits, DefaultsAreUnbounded) {
  DuplexChannel channel;
  for (std::uint64_t i = 0; i < 100; ++i) {
    channel.send(Direction::kAtoB, {MessageType::kData, i, crypto::Bytes(64, 1)});
  }
  EXPECT_EQ(channel.pending(Direction::kAtoB), 100u);
  EXPECT_EQ(channel.shed_stats(Direction::kAtoB).dropped_overflow, 0u);
  EXPECT_EQ(channel.shed_stats(Direction::kAtoB).dropped_oversized, 0u);
}

}  // namespace
}  // namespace neuropuls::net
