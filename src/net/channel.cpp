#include "net/channel.hpp"

namespace neuropuls::net {

void DuplexChannel::record(Direction direction, Message message,
                           bool delivered) {
  if (limits_.max_transcript_frames != 0 &&
      transcript_.size() >= limits_.max_transcript_frames) {
    ++shed_for(direction).transcript_truncated;
    return;
  }
  transcript_.push_back({direction, std::move(message), delivered});
}

bool DuplexChannel::admit_frame(Direction direction, Message& message) {
  // Size first: an oversized frame is rejected before it occupies any
  // queue slot, so the receiver's parse code never sees it and the only
  // memory it ever held is the sender's own buffer.
  if (limits_.max_frame_bytes != 0 &&
      message.payload.size() > limits_.max_frame_bytes) {
    ++shed_for(direction).dropped_oversized;
    record(direction, std::move(message), false);
    return false;
  }
  if (limits_.max_inbox_frames != 0 &&
      queue_for(direction).size() >= limits_.max_inbox_frames) {
    ++shed_for(direction).dropped_overflow;
    record(direction, std::move(message), false);
    return false;
  }
  return true;
}

void DuplexChannel::send(Direction direction, Message message) {
  if (adversary_) {
    const Verdict verdict = adversary_(direction, message);
    switch (verdict.action) {
      case Verdict::Action::kDrop:
        record(direction, std::move(message), false);
        return;
      case Verdict::Action::kReplace:
        record(direction, message, false);
        message = verdict.replacement;
        break;
      case Verdict::Action::kPass:
        break;
    }
  }
  inject(direction, std::move(message));
}

std::optional<Message> DuplexChannel::receive(Direction direction) {
  auto& queue = queue_for(direction);
  if (queue.empty()) return std::nullopt;
  Message message = std::move(queue.front());
  queue.pop_front();
  return message;
}

void DuplexChannel::inject(Direction direction, Message message) {
  // The limits rule injected frames too: replaying a recorded frame must
  // not bypass the inbox bound a flood is pressing against.
  if (!admit_frame(direction, message)) return;
  record(direction, message, true);
  queue_for(direction).push_back(std::move(message));
}

}  // namespace neuropuls::net
