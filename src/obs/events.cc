#include "src/obs/events.h"

#include <chrono>

#include "src/util/strings.h"

namespace aitia {
namespace obs {

const char* DiagPhaseName(DiagPhase phase) {
  switch (phase) {
    case DiagPhase::kQueued:
      return "queued";
    case DiagPhase::kStarted:
      return "started";
    case DiagPhase::kLifs:
      return "lifs";
    case DiagPhase::kSupervision:
      return "supervision";
    case DiagPhase::kFlipTested:
      return "flip-tested";
    case DiagPhase::kVerdict:
      return "verdict";
    case DiagPhase::kDone:
      return "done";
  }
  return "unknown";
}

FrameQueue::FrameQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void FrameQueue::Push(DiagEvent event) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return;
    }
    if (queue_.size() >= capacity_) {
      queue_.pop_front();
      ++dropped_;
    }
    event.seq = next_seq_++;
    queue_.push_back(std::move(event));
  }
  cv_.notify_one();
}

std::optional<DiagEvent> FrameQueue::Next(int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  if (queue_.empty() && !closed_ && timeout_ms > 0) {
    cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                 [this] { return !queue_.empty() || closed_; });
  }
  if (queue_.empty()) {
    return std::nullopt;
  }
  DiagEvent event = std::move(queue_.front());
  queue_.pop_front();
  return event;
}

void FrameQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return;
    }
    closed_ = true;
  }
  cv_.notify_all();
}

bool FrameQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

int64_t FrameQueue::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string DiagEventToJson(const DiagEvent& event) {
  std::string out = StrFormat("{\"phase\": \"%s\", \"seq\": %llu, \"name\": \"%s\"",
                              DiagPhaseName(event.phase),
                              static_cast<unsigned long long>(event.seq),
                              JsonEscape(event.name).c_str());
  if (!event.detail.empty()) {
    out += ", \"detail\": \"" + JsonEscape(event.detail) + "\"";
  }
  if (!event.counters.empty()) {
    out += ", \"counters\": {";
    for (size_t i = 0; i < event.counters.size(); ++i) {
      out += StrFormat("%s\"%s\": %lld", i == 0 ? "" : ", ",
                       JsonEscape(event.counters[i].first).c_str(),
                       static_cast<long long>(event.counters[i].second));
    }
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace obs
}  // namespace aitia
