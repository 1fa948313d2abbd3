// Wire format shared by all NEUROPULS protocol messages.
//
// A frame is: type(1) || session_id(8, big-endian) || length(4) || payload.
// Deliberately minimal — the "lightweight" requirement of §I rules out
// anything heavier, and explicit framing keeps the adversarial channel
// (replay/tamper/drop) byte-accurate.
#pragma once

#include <cstdint>
#include <string>

#include "crypto/bytes.hpp"

namespace neuropuls::net {

enum class MessageType : std::uint8_t {
  kAuthRequest = 1,
  kAuthResponse = 2,
  kAuthConfirm = 3,
  kAttestRequest = 4,
  kAttestReport = 5,
  kEkeClientHello = 6,
  kEkeServerHello = 7,
  kEkeClientConfirm = 8,
  kEkeServerConfirm = 9,
  kData = 10,
  kError = 15,
};

struct Message {
  MessageType type = MessageType::kError;
  std::uint64_t session_id = 0;
  crypto::Bytes payload;

  bool operator==(const Message&) const = default;
};

/// Serialises a message to wire bytes.
crypto::Bytes encode_message(const Message& message);

/// Parses wire bytes. Throws std::runtime_error on malformed frames
/// (truncation, length mismatch) — a receiver must treat those as attack
/// evidence, not silently ignore them.
Message decode_message(crypto::ByteView wire);

/// Human-readable type tag for transcripts.
std::string message_type_name(MessageType type);

}  // namespace neuropuls::net
