#include "src/obs/metrics.h"

#include <algorithm>
#include <utility>

#include "src/util/strings.h"

namespace aitia {
namespace obs {
namespace {

// The first bound >= value (upper-bound buckets); past-the-end overflows.
size_t BucketOf(const std::vector<int64_t>& bounds, int64_t value) {
  return static_cast<size_t>(std::lower_bound(bounds.begin(), bounds.end(), value) -
                             bounds.begin());
}

}  // namespace

Histogram::Histogram(std::vector<int64_t> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::vector<std::atomic<int64_t>>(bounds_.size() + 1);
}

void Histogram::Record(int64_t value) {
  buckets_[BucketOf(bounds_, value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) {
    slot.reset(new Counter());
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) {
    slot.reset(new Gauge());
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name, std::vector<int64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) {
    slot.reset(new Histogram(std::move(bounds)));
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.bounds = histogram->bounds_;
    for (const std::atomic<int64_t>& bucket : histogram->buckets_) {
      h.buckets.push_back(bucket.load(std::memory_order_relaxed));
    }
    h.count = histogram->count_.load(std::memory_order_relaxed);
    h.sum = histogram->sum_.load(std::memory_order_relaxed);
    snapshot.histograms[name] = std::move(h);
  }
  return snapshot;
}

void MetricsRegistry::Merge(const MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    GetCounter(name)->Add(value);
  }
  for (const auto& [name, h] : snapshot.histograms) {
    Histogram* histogram = GetHistogram(name, h.bounds);
    if (histogram->bounds_ != h.bounds) {
      continue;
    }
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      histogram->buckets_[i].fetch_add(h.buckets[i], std::memory_order_relaxed);
    }
    histogram->count_.fetch_add(h.count, std::memory_order_relaxed);
    histogram->sum_.fetch_add(h.sum, std::memory_order_relaxed);
  }
}

int64_t MetricsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

void MetricsSnapshot::Record(std::string_view name, std::initializer_list<int64_t> bounds,
                             int64_t value) {
  auto it = histograms.find(name);
  if (it == histograms.end()) {
    HistogramSnapshot h;
    h.bounds = bounds;
    h.buckets.assign(h.bounds.size() + 1, 0);
    it = histograms.emplace(name, std::move(h)).first;
  }
  HistogramSnapshot& h = it->second;
  ++h.buckets[BucketOf(h.bounds, value)];
  ++h.count;
  h.sum += value;
}

namespace {

std::string HistogramJson(const HistogramSnapshot& h) {
  std::string out = "{\"bounds\": [";
  for (size_t i = 0; i < h.bounds.size(); ++i) {
    out += StrFormat("%s%lld", i == 0 ? "" : ", ", static_cast<long long>(h.bounds[i]));
  }
  out += "], \"counts\": [";
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    out += StrFormat("%s%lld", i == 0 ? "" : ", ", static_cast<long long>(h.buckets[i]));
  }
  out += StrFormat("], \"count\": %lld, \"sum\": %lld}", static_cast<long long>(h.count),
                   static_cast<long long>(h.sum));
  return out;
}

// Emits [lo, hi) of dotted-name/value pairs as one nested JSON object,
// grouping on the segment that starts at `offset`. Names are expected to use
// [a-z0-9_.] only, which keeps each dotted prefix group contiguous under
// lexicographic order; a name that is both a leaf and a prefix of deeper
// names keeps the deeper names dotted at this level (valid JSON either way).
void EmitNested(const std::vector<std::pair<std::string, std::string>>& items, size_t lo,
                size_t hi, size_t offset, std::string& out) {
  out += "{";
  bool first = true;
  size_t i = lo;
  while (i < hi) {
    const std::string& name = items[i].first;
    const size_t dot = name.find('.', offset);
    const std::string key =
        name.substr(offset, dot == std::string::npos ? std::string::npos : dot - offset);
    size_t j = i;
    while (j < hi) {
      const std::string& other = items[j].first;
      if (other.compare(offset, key.size(), key) != 0) {
        break;
      }
      const char next =
          other.size() > offset + key.size() ? other[offset + key.size()] : '\0';
      if (next != '\0' && next != '.') {
        break;
      }
      ++j;
    }
    if (!first) {
      out += ", ";
    }
    first = false;
    if (dot == std::string::npos && j == i + 1) {
      out += "\"" + JsonEscape(key) + "\": " + items[i].second;
    } else if (dot == std::string::npos) {
      // Leaf and group share the name: emit the leaf, then the deeper names
      // flattened ("key.rest") so no JSON key repeats.
      out += "\"" + JsonEscape(key) + "\": " + items[i].second;
      for (size_t k = i + 1; k < j; ++k) {
        out += ", \"" + JsonEscape(items[k].first.substr(offset)) + "\": " + items[k].second;
      }
    } else {
      out += "\"" + JsonEscape(key) + "\": ";
      EmitNested(items, i, j, offset + key.size() + 1, out);
    }
    i = j;
  }
  out += "}";
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::vector<std::pair<std::string, std::string>> items;
  items.reserve(counters.size() + gauges.size() + histograms.size());
  for (const auto& [name, value] : counters) {
    items.emplace_back(name, StrFormat("%lld", static_cast<long long>(value)));
  }
  for (const auto& [name, value] : gauges) {
    items.emplace_back(name, StrFormat("%lld", static_cast<long long>(value)));
  }
  for (const auto& [name, h] : histograms) {
    items.emplace_back(name, HistogramJson(h));
  }
  std::sort(items.begin(), items.end());
  std::string out;
  EmitNested(items, 0, items.size(), 0, out);
  return out;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  if (!counters.empty()) {
    out += "counters:\n";
    for (const auto& [name, value] : counters) {
      out += StrFormat("  %-40s %lld\n", name.c_str(), static_cast<long long>(value));
    }
  }
  if (!gauges.empty()) {
    out += "gauges:\n";
    for (const auto& [name, value] : gauges) {
      out += StrFormat("  %-40s %lld\n", name.c_str(), static_cast<long long>(value));
    }
  }
  if (!histograms.empty()) {
    out += "histograms:\n";
    for (const auto& [name, h] : histograms) {
      out += StrFormat("  %-40s count=%lld sum=%lld", name.c_str(),
                       static_cast<long long>(h.count), static_cast<long long>(h.sum));
      for (size_t i = 0; i < h.buckets.size(); ++i) {
        if (i < h.bounds.size()) {
          out += StrFormat(" le%lld:%lld", static_cast<long long>(h.bounds[i]),
                           static_cast<long long>(h.buckets[i]));
        } else {
          out += StrFormat(" inf:%lld", static_cast<long long>(h.buckets[i]));
        }
      }
      out += "\n";
    }
  }
  if (out.empty()) {
    out = "(no metrics recorded)\n";
  }
  return out;
}

}  // namespace obs
}  // namespace aitia
