// Process-wide metrics registry (DESIGN.md §10).
//
// Named counters, gauges, and fixed-bucket histograms for the diagnosis
// pipeline. The write path is lock-free: each instrument is one set of
// relaxed atomics. Snapshot() may run concurrently with writers (each field
// is individually atomic, so a snapshot is "torn" at worst across
// *different* metrics, never undefined).
//
// Determinism rule: metrics are pure read-side accounting. Nothing in the
// pipeline reads a metric back to make a decision, so enabling or inspecting
// them cannot perturb the winner schedule, race set, or explored order
// (asserted corpus-wide by tests/golden_test.cc).
//
// Instruments live for the process lifetime: Get* returns a stable pointer
// that call sites cache in a function-local static, paying the registry
// mutex once per call site instead of once per increment. A diagnosis
// records into its own MetricsSnapshot instead (src/hv/diag_context.h),
// which the facade merges into the registry once when it finishes, so the
// registry is written once per request, scrape or merge, never per run.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace aitia {
namespace obs {

class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  // Raises the gauge to `value` if it reads below it (lock-free CAS loop).
  // High-water marks — e.g. the service queue-depth peak that the load
  // driver asserts stays within the configured bound — are gauges that only
  // ever move up, so concurrent writers need max, not last-write-wins.
  void SetMax(int64_t value) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < value &&
           !value_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket histogram with Prometheus-style upper-bound edges: bucket i
// counts values v with bounds[i-1] < v <= bounds[i]; one extra overflow
// bucket counts v > bounds.back().
class Histogram {
 public:
  void Record(int64_t value);
  const std::vector<int64_t>& bounds() const { return bounds_; }

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<int64_t> bounds);

  std::vector<int64_t> bounds_;                // ascending upper bounds
  std::vector<std::atomic<int64_t>> buckets_;  // bounds_.size() + 1 (overflow last)
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

struct HistogramSnapshot {
  std::vector<int64_t> bounds;
  std::vector<int64_t> buckets;  // bounds.size() + 1 (overflow last)
  int64_t count = 0;
  int64_t sum = 0;
};

// Point-in-time merged view of a registry, or one diagnosis's own counts.
// Snapshots are plain values, serializable (ToJson / ToText).
struct MetricsSnapshot {
  std::map<std::string, int64_t, std::less<>> counters;
  std::map<std::string, int64_t, std::less<>> gauges;
  std::map<std::string, HistogramSnapshot, std::less<>> histograms;

  // Counter value by name; 0 when absent.
  int64_t counter(const std::string& name) const;
  bool empty() const { return counters.empty() && gauges.empty() && histograms.empty(); }

  // Records `value` into the named histogram, creating it with `bounds`
  // (ascending upper bounds, as Histogram's) on first use.
  void Record(std::string_view name, std::initializer_list<int64_t> bounds, int64_t value);

  // Nested JSON object: dotted names become nested objects, so
  // "lifs.schedules_executed" serializes as {"lifs": {"schedules_executed": N}}.
  // Histograms serialize as {"bounds": [...], "counts": [...], "count": N, "sum": S}.
  std::string ToJson() const;

  // Human-readable summary (the CLI's --metrics output).
  std::string ToText() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry the pipeline reports into.
  static MetricsRegistry& Global();

  // Returns the named instrument, creating it on first use. Pointers are
  // stable for the registry's lifetime. A histogram re-requested with
  // different bounds keeps the bounds of its first registration.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name, std::vector<int64_t> bounds);

  MetricsSnapshot Snapshot() const;

  // Adds a snapshot's counters and histograms to this registry's, creating
  // instruments on first use. A histogram registered with other bounds is
  // skipped: its buckets cannot be added. Gauges are levels and not merged.
  void Merge(const MetricsSnapshot& snapshot);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace aitia

#endif  // SRC_OBS_METRICS_H_
