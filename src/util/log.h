// Minimal leveled logging. Diagnosis runs are chatty at kDebug; benches and
// examples run at kInfo.
//
// Thread safety: each AITIA_LOG statement buffers into its own stream and is
// emitted as one LogMessage call; the sink (stderr by default) is guarded by
// a single mutex, so concurrent diagnoses never interleave partial lines.
// Every line carries a small per-thread tag ("[T3]") so interleaved *whole*
// lines from a worker pool stay attributable.

#ifndef SRC_UTIL_LOG_H_
#define SRC_UTIL_LOG_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace aitia {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Parses "debug" / "info" / "warn" / "error" / "off" (case-sensitive);
// nullopt on anything else.
std::optional<LogLevel> ParseLogLevel(std::string_view text);

// Applies the AITIA_LOG_LEVEL environment variable if set and valid; returns
// true when a level was applied. Called by CLI mains before flag parsing so
// an explicit --log-level still wins.
bool InitLogLevelFromEnv();

// Small dense id for the calling thread (1, 2, 3, ... in first-use order).
// Stable for the thread's lifetime. Shared by the log prefix and the span
// tracer's `tid`.
uint32_t CurrentThreadTag();

// Emits one formatted line ("[LEVEL][Tn] msg") to the sink under the sink
// mutex. Lines below the current level are dropped before formatting.
void LogMessage(LogLevel level, const std::string& msg);

// Replaces the stderr sink (tests capture lines here); nullptr restores
// stderr. The sink receives fully formatted single lines, one call per line,
// already serialized by the sink mutex.
using LogSink = std::function<void(LogLevel, const std::string& line)>;
void SetLogSink(LogSink sink);

namespace internal {

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { LogMessage(level_, stream_.str()); }

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace aitia

#define AITIA_LOG(level) \
  ::aitia::internal::LogLine(::aitia::LogLevel::level)

#endif  // SRC_UTIL_LOG_H_
