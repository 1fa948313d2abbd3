#include "net/channel.hpp"

namespace neuropuls::net {

void DuplexChannel::send(Direction direction, Message message) {
  if (adversary_) {
    Verdict verdict = adversary_(direction, message);
    switch (verdict.action) {
      case Verdict::Action::kDrop:
        transcript_.push_back({direction, std::move(message), false});
        return;
      case Verdict::Action::kReplace:
        transcript_.push_back({direction, std::move(message), false});
        message = std::move(verdict.replacement);
        break;
      case Verdict::Action::kPass:
        break;
    }
  }
  inject(direction, std::move(message));
}

std::optional<Message> DuplexChannel::receive(Direction direction) {
  Cursor& cursor = cursor_for(direction);
  if (cursor.pending == 0) return std::nullopt;
  while (!transcript_[cursor.next].delivered ||
         transcript_[cursor.next].direction != direction) {
    ++cursor.next;
  }
  --cursor.pending;
  return transcript_[cursor.next++].message;
}

void DuplexChannel::inject(Direction direction, Message message) {
  transcript_.push_back({direction, std::move(message), true});
  ++cursor_for(direction).pending;
}

}  // namespace neuropuls::net
