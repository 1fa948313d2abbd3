// Wire-format and adversarial-channel tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/alloc_probe.hpp"
#include "net/channel.hpp"

NEUROPULS_DEFINE_ALLOC_PROBE()

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

TEST(Channel, ConstructionAllocatesNothing) {
  const auto before = common::alloc_probe::allocations();
  std::optional<DuplexChannel> channel;
  channel.emplace();
  EXPECT_FALSE(channel->readable(Direction::kAtoB));
  channel.reset();
  EXPECT_EQ(common::alloc_probe::allocations(), before);
}

// Each direction must receive exactly its delivered transcript entries,
// in transcript order, whatever the adversary dropped, replaced or
// injected in between, and pending() must count what is left to read.
TEST(Channel, ReceiveFollowsTranscriptOrderPerDirection) {
  DuplexChannel channel;
  channel.set_adversary([&channel](Direction direction, const Message& m) {
    switch (m.session_id) {
      case 3:
        return Verdict::drop();
      case 5:
        return Verdict::replace({MessageType::kData, 50, {0x50}});
      case 7:
        channel.inject(direction, m);  // duplicate lands ahead of m
        return Verdict::pass();
      default:
        return Verdict::pass();
    }
  });

  const Direction directions[] = {Direction::kAtoB, Direction::kBtoA};
  std::vector<Message> received[2];
  const auto delivered_in = [&](Direction direction) {
    std::vector<Message> delivered;
    for (const auto& entry : channel.transcript()) {
      if (entry.delivered && entry.direction == direction) {
        delivered.push_back(entry.message);
      }
    }
    return delivered;
  };
  const auto check_pending = [&] {
    for (const Direction d : directions) {
      const std::size_t left =
          delivered_in(d).size() - received[static_cast<int>(d)].size();
      EXPECT_EQ(channel.pending(d), left);
      EXPECT_EQ(channel.readable(d), left != 0);
    }
  };
  const auto send = [&](Direction direction, std::uint64_t sid) {
    channel.send(direction, {MessageType::kData, sid,
                             {static_cast<std::uint8_t>(sid)}});
    check_pending();
  };
  const auto receive = [&](Direction direction) {
    auto message = channel.receive(direction);
    ASSERT_TRUE(message.has_value());
    received[static_cast<int>(direction)].push_back(std::move(*message));
    check_pending();
  };

  send(Direction::kAtoB, 1);
  send(Direction::kBtoA, 2);
  send(Direction::kAtoB, 3);  // dropped
  receive(Direction::kAtoB);
  send(Direction::kBtoA, 4);
  send(Direction::kAtoB, 5);  // replaced by 50
  send(Direction::kBtoA, 7);  // duplicated
  receive(Direction::kBtoA);
  send(Direction::kAtoB, 8);
  channel.inject(Direction::kBtoA, {MessageType::kData, 9, {0x09}});
  check_pending();
  for (int i = 0; i < 4; ++i) receive(Direction::kBtoA);
  for (int i = 0; i < 2; ++i) receive(Direction::kAtoB);
  EXPECT_FALSE(channel.receive(Direction::kAtoB).has_value());
  EXPECT_FALSE(channel.receive(Direction::kBtoA).has_value());

  const auto ids = [](const std::vector<Message>& messages) {
    std::vector<std::uint64_t> out;
    for (const auto& m : messages) out.push_back(m.session_id);
    return out;
  };
  for (const Direction d : directions) {
    EXPECT_EQ(received[static_cast<int>(d)], delivered_in(d));
  }
  EXPECT_EQ(ids(received[static_cast<int>(Direction::kAtoB)]),
            (std::vector<std::uint64_t>{1, 50, 8}));
  EXPECT_EQ(ids(received[static_cast<int>(Direction::kBtoA)]),
            (std::vector<std::uint64_t>{2, 4, 7, 7, 9}));
  ASSERT_EQ(channel.transcript().size(), 10u);
  EXPECT_FALSE(channel.transcript()[2].delivered);  // 3, dropped
  EXPECT_FALSE(channel.transcript()[4].delivered);  // 5, replaced
}

}  // namespace
}  // namespace neuropuls::net
