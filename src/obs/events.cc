#include "src/obs/events.h"

#include <algorithm>
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

EventSubscription::EventSubscription(uint64_t scope, size_t capacity)
    : scope_(scope), capacity_(capacity == 0 ? 1 : capacity) {}

EventSubscription::~EventSubscription() { Close(); }

std::optional<DiagEvent> EventSubscription::Next(int64_t timeout_ms) {
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

void EventSubscription::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return;
    }
    closed_ = true;
  }
  cv_.notify_all();
}

bool EventSubscription::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

int64_t EventSubscription::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

EventBus& EventBus::Global() {
  static EventBus* const bus = new EventBus();
  return *bus;
}

uint64_t EventBus::NextScope() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<EventSubscription> EventBus::Subscribe(uint64_t scope, size_t capacity) {
  auto sub = std::shared_ptr<EventSubscription>(new EventSubscription(scope, capacity));
  std::lock_guard<std::mutex> lock(mu_);
  Compact();
  subs_.push_back(sub);
  subscriber_count_.store(static_cast<int64_t>(subs_.size()), std::memory_order_relaxed);
  return sub;
}

void EventBus::Compact() {
  subs_.erase(std::remove_if(subs_.begin(), subs_.end(),
                             [](const std::shared_ptr<EventSubscription>& sub) {
                               return sub == nullptr || sub->closed();
                             }),
              subs_.end());
  subscriber_count_.store(static_cast<int64_t>(subs_.size()), std::memory_order_relaxed);
}

void EventBus::Publish(DiagEvent event) {
  if (!active() || event.scope == 0) {
    return;
  }
  // Collect matching subscriptions under the bus lock, deliver outside it so
  // a consumer holding its queue mutex in Next() never serializes the bus.
  std::vector<std::shared_ptr<EventSubscription>> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool saw_closed = false;
    for (const std::shared_ptr<EventSubscription>& sub : subs_) {
      if (sub->closed()) {
        saw_closed = true;
        continue;
      }
      if (sub->scope_ == event.scope) {
        targets.push_back(sub);
      }
    }
    if (saw_closed) {
      Compact();
    }
  }
  for (const std::shared_ptr<EventSubscription>& sub : targets) {
    bool notify = false;
    {
      std::lock_guard<std::mutex> lock(sub->mu_);
      if (sub->closed_) {
        continue;
      }
      if (sub->queue_.size() >= sub->capacity_) {
        // Oldest-first eviction: streaming is a progress feed, so the newest
        // event is the valuable one when the consumer lags.
        sub->queue_.pop_front();
        ++sub->dropped_;
      }
      DiagEvent copy = event;
      copy.seq = sub->next_seq_++;
      sub->queue_.push_back(std::move(copy));
      notify = true;
    }
    if (notify) {
      sub->cv_.notify_one();
    }
  }
}

void PublishDiagEvent(uint64_t scope, DiagPhase phase, const char* name, std::string detail,
                      std::vector<std::pair<std::string, int64_t>> counters) {
  if (scope == 0 || !EventBus::Global().active()) {
    return;
  }
  DiagEvent event;
  event.scope = scope;
  event.phase = phase;
  event.name = name;
  event.detail = std::move(detail);
  event.counters = std::move(counters);
  EventBus::Global().Publish(std::move(event));
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
