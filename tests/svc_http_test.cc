// Tests for the HTTP scrape plane (src/svc/http.h) and the Prometheus text
// exposition (src/obs/prometheus.h).
//
// The exposition is validated with an *independent* line-format parser
// written against the Prometheus text-format spec (version 0.0.4), not
// against the renderer's own helpers — the renderer must satisfy a reader
// that never saw its implementation. The HTTP server is exercised over real
// loopback sockets: status lines, content types, routing, hostile requests.

#include "src/svc/http.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/prometheus.h"
#include "src/svc/daemon.h"
#include "src/svc/jsonv.h"
#include "src/util/strings.h"
#include "tests/json_checker.h"

namespace aitia {
namespace {

// ---------------------------------------------------------------------------
// Independent Prometheus text-format (0.0.4) validator.

bool IsPromNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
}
bool IsPromNameChar(char c) { return IsPromNameStart(c) || (c >= '0' && c <= '9'); }

bool ValidPromName(const std::string& name) {
  if (name.empty() || !IsPromNameStart(name[0])) {
    return false;
  }
  for (char c : name) {
    if (!IsPromNameChar(c)) {
      return false;
    }
  }
  return true;
}

// Parses one sample value token: NaN, +Inf, -Inf, or a C float literal.
bool ParsePromValue(const std::string& token, double* out) {
  if (token == "NaN") {
    *out = std::nan("");
    return true;
  }
  if (token == "+Inf") {
    *out = HUGE_VAL;
    return true;
  }
  if (token == "-Inf") {
    *out = -HUGE_VAL;
    return true;
  }
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end != nullptr && *end == '\0' && !token.empty();
}

struct PromSample {
  std::string family;  // name with _bucket/_sum/_count folded to the base
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
};

// Validates the whole exposition; returns false with a reason on the first
// violation. On success fills `samples` and `types` (family -> TYPE).
bool ValidateExposition(const std::string& text, std::vector<PromSample>* samples,
                        std::map<std::string, std::string>* types, std::string* why) {
  auto fail = [&](const std::string& reason, const std::string& line) {
    *why = reason + ": '" + line + "'";
    return false;
  };
  if (!text.empty() && text.back() != '\n') {
    *why = "exposition must end with a newline";
    return false;
  }
  std::map<std::string, bool> family_has_samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;  // blank lines are legal separators
    }
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, name;
      ls >> hash >> kind >> name;
      if (kind != "HELP" && kind != "TYPE") {
        continue;  // plain comment
      }
      if (!ValidPromName(name)) {
        return fail("bad metric name in # " + kind, line);
      }
      if (kind == "TYPE") {
        std::string type;
        ls >> type;
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return fail("unknown TYPE", line);
        }
        if (types->count(name) != 0) {
          return fail("duplicate TYPE for family", line);
        }
        if (family_has_samples[name]) {
          return fail("TYPE after samples of its family", line);
        }
        (*types)[name] = type;
      }
      continue;
    }

    // Sample line: name[{labels}] value [timestamp]
    PromSample s;
    size_t pos = 0;
    while (pos < line.size() && IsPromNameChar(line[pos])) {
      ++pos;
    }
    s.name = line.substr(0, pos);
    if (!ValidPromName(s.name)) {
      return fail("bad sample metric name", line);
    }
    if (pos < line.size() && line[pos] == '{') {
      ++pos;
      while (pos < line.size() && line[pos] != '}') {
        size_t key_start = pos;
        while (pos < line.size() && IsPromNameChar(line[pos])) {
          ++pos;
        }
        const std::string key = line.substr(key_start, pos - key_start);
        if (key.empty() || pos + 1 >= line.size() || line[pos] != '=' ||
            line[pos + 1] != '"') {
          return fail("malformed label", line);
        }
        pos += 2;
        std::string value;
        bool closed = false;
        while (pos < line.size()) {
          const char c = line[pos];
          if (c == '"') {
            closed = true;
            ++pos;
            break;
          }
          if (c == '\\') {
            if (pos + 1 >= line.size()) {
              return fail("dangling escape in label value", line);
            }
            const char e = line[pos + 1];
            if (e != '\\' && e != '"' && e != 'n') {
              return fail("unknown escape in label value", line);
            }
            value += e == 'n' ? '\n' : e;
            pos += 2;
            continue;
          }
          value += c;
          ++pos;
        }
        if (!closed) {
          return fail("unterminated label value", line);
        }
        s.labels[key] = value;
        if (pos < line.size() && line[pos] == ',') {
          ++pos;
        }
      }
      if (pos >= line.size() || line[pos] != '}') {
        return fail("unterminated label set", line);
      }
      ++pos;
    }
    if (pos >= line.size() || line[pos] != ' ') {
      return fail("expected space before value", line);
    }
    std::istringstream rest(line.substr(pos + 1));
    std::string value_token;
    rest >> value_token;
    if (!ParsePromValue(value_token, &s.value)) {
      return fail("unparseable sample value", line);
    }

    // Fold histogram series names onto their family for the TYPE check.
    s.family = s.name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t len = std::strlen(suffix);
      if (s.name.size() > len && s.name.compare(s.name.size() - len, len, suffix) == 0) {
        const std::string base = s.name.substr(0, s.name.size() - len);
        if (types->count(base) != 0 && (*types)[base] == "histogram") {
          s.family = base;
        }
      }
    }
    if (types->count(s.family) == 0) {
      return fail("sample with no preceding TYPE", line);
    }
    family_has_samples[s.family] = true;
    samples->push_back(std::move(s));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Helper: one raw HTTP exchange against a live server.

std::string RawRequest(int port, const std::string& request) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return "";
  }
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = send(fd, request.data() + off, request.size() - off, 0);
    if (n <= 0) {
      break;
    }
    off += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      break;
    }
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

std::string Get(int port, const std::string& path) {
  return RawRequest(port, "GET " + path + " HTTP/1.0\r\nHost: x\r\n\r\n");
}

std::string BodyOf(const std::string& response) {
  const size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? "" : response.substr(sep + 4);
}

// ---------------------------------------------------------------------------
// Exposition helpers.

TEST(PrometheusTest, SanitizeName) {
  EXPECT_EQ(obs::PromSanitizeName("svc.requests"), "svc_requests");
  EXPECT_EQ(obs::PromSanitizeName("supervisor.run_steps"), "supervisor_run_steps");
  EXPECT_EQ(obs::PromSanitizeName("1bad"), "_1bad");
  EXPECT_EQ(obs::PromSanitizeName("has space+plus"), "has_space_plus");
  EXPECT_EQ(obs::PromSanitizeName(""), "_");
}

TEST(PrometheusTest, EscapeLabelValueAndHelp) {
  EXPECT_EQ(obs::PromEscapeLabelValue("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  EXPECT_EQ(obs::PromEscapeHelp("a\\b\"c\nd"), "a\\\\b\"c\\nd");  // quotes legal in HELP
}

TEST(PrometheusTest, FormatValue) {
  EXPECT_EQ(obs::PromFormatValue(0), "0");
  EXPECT_EQ(obs::PromFormatValue(42), "42");
  EXPECT_EQ(obs::PromFormatValue(-7), "-7");
  EXPECT_EQ(obs::PromFormatValue(std::nan("")), "NaN");
  EXPECT_EQ(obs::PromFormatValue(HUGE_VAL), "+Inf");
  EXPECT_EQ(obs::PromFormatValue(-HUGE_VAL), "-Inf");
  double parsed = 0;
  ASSERT_TRUE(ParsePromValue(obs::PromFormatValue(0.25), &parsed));
  EXPECT_EQ(parsed, 0.25);
}

TEST(PrometheusTest, ExpositionOfHostileRegistryValidates) {
  // A local registry seeded with names chosen to stress sanitization, plus a
  // histogram to exercise the cumulative-bucket encoding.
  obs::MetricsRegistry registry;
  registry.GetCounter("svc.requests")->Add(3);
  registry.GetCounter("1starts.with-digit")->Add(1);
  registry.GetCounter("weird name+punct!")->Increment();
  registry.GetGauge("svc.queue_depth")->Set(-2);
  obs::Histogram* h = registry.GetHistogram("svc.latency_ms", {1, 5, 25, 125});
  for (int64_t v : {0, 1, 2, 30, 1000, 3, 6}) {
    h->Record(v);
  }

  const std::string text = obs::ToPrometheusText(registry.Snapshot());
  std::vector<PromSample> samples;
  std::map<std::string, std::string> types;
  std::string why;
  ASSERT_TRUE(ValidateExposition(text, &samples, &types, &why)) << why << "\n" << text;

  // Counters carry the conventional _total suffix and the counter TYPE.
  EXPECT_EQ(types["aitia_svc_requests_total"], "counter");
  EXPECT_EQ(types["aitia__1starts_with_digit_total"], "counter");
  EXPECT_EQ(types["aitia_weird_name_punct__total"], "counter");
  EXPECT_EQ(types["aitia_svc_queue_depth"], "gauge");
  EXPECT_EQ(types["aitia_svc_latency_ms"], "histogram");

  // Histogram semantics: cumulative buckets, increasing le edges closed by
  // +Inf, and bucket{+Inf} == _count.
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  double sum = -1, count = -1;
  for (const PromSample& s : samples) {
    if (s.family != "aitia_svc_latency_ms") {
      if (s.name == "aitia_svc_queue_depth") {
        EXPECT_EQ(s.value, -2);
      }
      continue;
    }
    if (s.name == "aitia_svc_latency_ms_bucket") {
      const auto le = s.labels.find("le");
      ASSERT_NE(le, s.labels.end());
      double edge = 0;
      ASSERT_TRUE(ParsePromValue(le->second, &edge)) << le->second;
      buckets.emplace_back(edge, s.value);
    } else if (s.name == "aitia_svc_latency_ms_sum") {
      sum = s.value;
    } else if (s.name == "aitia_svc_latency_ms_count") {
      count = s.value;
    }
  }
  ASSERT_EQ(buckets.size(), 5u);  // 4 edges + +Inf
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LT(buckets[i - 1].first, buckets[i].first);
    EXPECT_LE(buckets[i - 1].second, buckets[i].second) << "buckets must be cumulative";
  }
  EXPECT_TRUE(std::isinf(buckets.back().first));
  EXPECT_EQ(buckets.back().second, 7);  // all recorded values
  EXPECT_EQ(count, 7);
  EXPECT_EQ(sum, 0 + 1 + 2 + 30 + 1000 + 3 + 6);
}

TEST(PrometheusTest, ValidatorRejectsMalformedLines) {
  std::vector<PromSample> samples;
  std::map<std::string, std::string> types;
  std::string why;
  // The validator itself must have teeth, or the test above proves nothing.
  EXPECT_FALSE(ValidateExposition("no_type_line 1\n", &samples, &types, &why));
  EXPECT_FALSE(ValidateExposition("# TYPE x counter\nx{bad-label=\"v\"} 1\n",
                                  &samples, &types, &why));
  EXPECT_FALSE(ValidateExposition("# TYPE x counter\nx notanumber\n",
                                  &samples, &types, &why));
  EXPECT_FALSE(ValidateExposition("# TYPE x counter\nx 1", &samples, &types, &why))
      << "missing trailing newline must be rejected";
  EXPECT_FALSE(ValidateExposition("# TYPE x counter\n# TYPE x counter\nx 1\n",
                                  &samples, &types, &why));
}

// ---------------------------------------------------------------------------
// Live server.

TEST(HttpServerTest, ServesMetricsHealthStatusAndErrors) {
  obs::MetricsRegistry registry;
  registry.GetCounter("svc.requests")->Add(5);
  std::atomic<bool> healthy{true};

  svc::HttpServerOptions options;
  options.port = 0;  // ephemeral
  options.metrics = [&registry] { return obs::ToPrometheusText(registry.Snapshot()); };
  options.statusz = [] { return std::string("{\"in_flight\":0,\"draining\":false}"); };
  options.healthy = [&healthy] { return healthy.load(); };
  svc::HttpServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  // /metrics: 200, the versioned content type, and a body that satisfies the
  // independent exposition validator.
  const std::string metrics = Get(server.port(), "/metrics");
  EXPECT_EQ(metrics.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << metrics;
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
            std::string::npos);
  std::vector<PromSample> samples;
  std::map<std::string, std::string> types;
  std::string why;
  EXPECT_TRUE(ValidateExposition(BodyOf(metrics), &samples, &types, &why)) << why;
  EXPECT_EQ(types.count("aitia_svc_requests_total"), 1u);

  // /healthz flips with the callback.
  EXPECT_EQ(Get(server.port(), "/healthz").rfind("HTTP/1.0 200", 0), 0u);
  EXPECT_EQ(BodyOf(Get(server.port(), "/healthz")), "ok\n");
  healthy.store(false);
  const std::string draining = Get(server.port(), "/healthz");
  EXPECT_EQ(draining.rfind("HTTP/1.0 503", 0), 0u) << draining;
  EXPECT_EQ(BodyOf(draining), "draining\n");
  healthy.store(true);

  // /statusz serves JSON.
  const std::string statusz = Get(server.port(), "/statusz");
  EXPECT_NE(statusz.find("Content-Type: application/json"), std::string::npos);
  EXPECT_TRUE(testing_json::IsValidJson(BodyOf(statusz), &why)) << why;

  // Query strings are stripped; the endpoints take no parameters.
  EXPECT_EQ(Get(server.port(), "/healthz?verbose=1").rfind("HTTP/1.0 200", 0), 0u);

  // Routing and method errors.
  EXPECT_EQ(Get(server.port(), "/nope").rfind("HTTP/1.0 404", 0), 0u);
  EXPECT_EQ(RawRequest(server.port(), "POST /metrics HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 405", 0),
            0u);
  EXPECT_EQ(RawRequest(server.port(), "garbage\r\n\r\n").rfind("HTTP/1.0 400", 0), 0u);

  // Each response closes the connection (Connection: close, HTTP/1.0), and
  // the server keeps serving after hostile requests.
  EXPECT_NE(Get(server.port(), "/healthz").find("Connection: close"), std::string::npos);

  server.Stop();
  server.Stop();  // idempotent
}

// svc.request_us resolves a typical request: a diagnosis answered within
// half a millisecond lands in a bucket below 1 ms on the live /metrics plane,
// served the way aitiad serves it.
TEST(HttpServerTest, SubMillisecondRequestLandsBelowOneMillisecondBucket) {
  // One thread, no race: LIFS exhausts its tiny frontier in microseconds.
  const std::string ait =
      "ait 1\n"
      "scenario tiny\n"
      "global flag 0\n"
      "program set_flag\n"
      "  lea r1, flag\n"
      "  store_imm r1, 1\n"
      "  exit\n"
      "end\n"
      "slice t set_flag\n";
  const std::string request = R"({"verb":"diagnose","id":"tiny","no_cache":true,"ait":")" +
                              JsonEscape(ait) + "\"}";
  svc::Daemon daemon(svc::DaemonOptions{});
  // An optimized or ASan build answers this request in well under 0.5 ms;
  // retries absorb a loaded host. (A ThreadSanitizer build slows every
  // request past 0.5 ms and cannot show the property.)
  int64_t fast = 0;  // requests answered in <= 500 us
  for (int i = 0; i < 200 && fast < 3; ++i) {
    auto parsed = svc::ParseJson(daemon.HandleLine(request));
    ASSERT_TRUE(parsed.ok());
    const svc::JsonValue doc = std::move(parsed).value();
    ASSERT_NE(doc.Find("elapsed_ms"), nullptr);
    if (doc.Find("elapsed_ms")->AsDouble() <= 0.5) {
      ++fast;
    }
  }
  ASSERT_GT(fast, 0) << "no request finished within 0.5 ms";

  svc::HttpServerOptions options;
  options.port = 0;
  options.metrics = [] {
    return obs::ToPrometheusText(obs::MetricsRegistry::Global().Snapshot());
  };
  svc::HttpServer server(options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<PromSample> samples;
  std::map<std::string, std::string> types;
  std::string why;
  ASSERT_TRUE(ValidateExposition(BodyOf(Get(server.port(), "/metrics")), &samples, &types, &why))
      << why;
  server.Stop();

  EXPECT_EQ(types["aitia_svc_request_us"], "histogram");
  double below_half_ms = -1;
  double below_one_ms = -1;
  for (const PromSample& sample : samples) {
    if (sample.name != "aitia_svc_request_us_bucket") {
      continue;
    }
    if (sample.labels.at("le") == "500") {
      below_half_ms = sample.value;
    } else if (sample.labels.at("le") == "1000") {
      below_one_ms = sample.value;
    }
  }
  // Buckets are cumulative: every fast request counts at le="500", a bucket
  // strictly below the 1 ms one.
  EXPECT_GE(below_half_ms, static_cast<double>(fast));
  EXPECT_GE(below_one_ms, below_half_ms);
}

TEST(HttpServerTest, StartFailsOnTakenPort) {
  svc::HttpServerOptions options;
  options.port = 0;
  options.healthy = [] { return true; };
  svc::HttpServer first(options);
  ASSERT_TRUE(first.Start().ok());

  svc::HttpServerOptions clash = options;
  clash.port = first.port();
  svc::HttpServer second(clash);
  const Status status = second.Start();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  first.Stop();
}

TEST(HttpServerTest, MissingHandlersFallThroughTo404) {
  svc::HttpServerOptions options;
  options.port = 0;  // no metrics/statusz handlers registered
  svc::HttpServer server(options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(Get(server.port(), "/metrics").rfind("HTTP/1.0 404", 0), 0u);
  EXPECT_EQ(Get(server.port(), "/statusz").rfind("HTTP/1.0 404", 0), 0u);
  // /healthz with no callback defaults to healthy.
  EXPECT_EQ(Get(server.port(), "/healthz").rfind("HTTP/1.0 200", 0), 0u);
  server.Stop();
}

TEST(HttpResponseTest, WireFormat) {
  const std::string r = svc::HttpResponse(200, "OK", "text/plain; charset=utf-8", "hello\n");
  EXPECT_EQ(r,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n"
            "Content-Length: 6\r\nConnection: close\r\n\r\nhello\n");
}

}  // namespace
}  // namespace aitia
