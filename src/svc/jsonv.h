// Minimal JSON value parser for the aitiad request protocol.
//
// The daemon reads one JSON object per line from untrusted clients, so the
// parser is written for hostility, not generality: every malformed input
// yields a Status (never an abort or an exception), nesting depth and input
// size are bounded, and numbers/strings are validated strictly per RFC 8259.
// The repo's JSON *writers* (report, metrics, trace) stay where they are;
// this is the read side only, and only the service layer uses it.

#ifndef SRC_SVC_JSONV_H_
#define SRC_SVC_JSONV_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace aitia {
namespace svc {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_string() const { return kind_ == Kind::kString; }

  // Typed readers with defaults; wrong-kind reads return the default rather
  // than aborting (the daemon validates kinds where it matters). AsInt
  // truncates a double toward zero and saturates outside int64_t's range.
  bool AsBool(bool def = false) const { return kind_ == Kind::kBool ? bool_ : def; }
  int64_t AsInt(int64_t def = 0) const;
  double AsDouble(double def = 0) const;
  const std::string& AsString() const { return string_; }

  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& fields() const { return fields_; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

 private:
  friend class Parser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> fields_;
};

// Parses exactly one JSON value spanning all of `text` (trailing garbage is
// an error). Limits: `max_depth` nesting levels; the caller bounds the input
// size before calling. Errors carry a byte offset for diagnostics.
StatusOr<JsonValue> ParseJson(std::string_view text, int max_depth = 32);

}  // namespace svc
}  // namespace aitia

#endif  // SRC_SVC_JSONV_H_
