// aitiad_loadgen — load / chaos driver for the aitiad daemon.
//
// Replays the bug corpus against a running daemon at high concurrency and
// asserts the robustness contract from DESIGN.md §11:
//   - the daemon never dies: every connection stays serviceable end to end;
//   - every request gets exactly one terminal response, with its id echoed;
//   - floods are shed deterministically: "overloaded" is a valid terminal
//     answer and is retried here, never a hang;
//   - the admission queue stays bounded: svc.queue_depth_peak from the final
//     metrics snapshot must not exceed --expect-bounded-queue;
//   - svc.duplicate_responses stays 0.
//
// Prints a one-line summary JSON on stdout and exits 0 iff all checks pass.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/bugs/registry.h"
#include "src/svc/jsonv.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"

namespace {

using namespace aitia;

struct Config {
  std::string host = "127.0.0.1";
  int port = -1;
  size_t clients = 8;
  size_t rounds = 2;
  std::vector<std::string> scenarios;  // empty = full corpus
  int64_t hold_ms = 0;
  int64_t deadline_ms = 0;  // 0 = daemon default
  size_t max_retries = 50;
  int64_t retry_sleep_ms = 20;
  int64_t expect_bounded_queue = 0;  // 0 = skip the peak-depth check
  double timeout_seconds = 180.0;
  bool shutdown_after = false;
};

// Totals across all clients.
struct Tally {
  std::atomic<int64_t> sent{0};
  std::atomic<int64_t> ok{0};
  std::atomic<int64_t> degraded{0};
  std::atomic<int64_t> not_reproduced{0};
  std::atomic<int64_t> overloaded{0};        // retried rejections
  std::atomic<int64_t> retries_exhausted{0};
  std::atomic<int64_t> cache_hits{0};
  std::atomic<int64_t> protocol_errors{0};   // unexpected status / id mismatch
  std::atomic<int64_t> transport_errors{0};  // connect/send/recv failures
};

int Usage(FILE* to) {
  std::fprintf(to,
               "usage: aitiad_loadgen --port N [options]\n"
               "  --host H                 daemon host (default 127.0.0.1)\n"
               "  --clients N              concurrent client connections (default 8)\n"
               "  --rounds N               corpus replays per client (default 2)\n"
               "  --scenarios a,b,c        corpus ids to replay (default: all)\n"
               "  --hold-ms N              ask each diagnosis to hold its worker N ms\n"
               "  --deadline-ms N          per-request budget (0 = daemon default)\n"
               "  --max-retries N          retries per request on 'overloaded' (default 50)\n"
               "  --retry-sleep-ms N       floor between retries (default 20)\n"
               "  --expect-bounded-queue N fail if svc.queue_depth_peak exceeds N\n"
               "  --timeout N              whole-run budget in seconds (default 180)\n"
               "  --shutdown               send the shutdown verb when done\n");
  return to == stdout ? 0 : 2;
}

// A blocking line-oriented client connection.
class Client {
 public:
  ~Client() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }

  bool Connect(const std::string& host, int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return false;
    }
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      return false;
    }
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }

  bool SendLine(const std::string& line) {
    std::string out = line;
    out += '\n';
    size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool RecvLine(std::string& line) {
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  // One round trip; empty string on transport failure.
  std::string Call(const std::string& request) {
    std::string response;
    if (!SendLine(request) || !RecvLine(response)) {
      return "";
    }
    return response;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string Field(const svc::JsonValue& doc, const char* key) {
  const svc::JsonValue* v = doc.Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : "";
}

void RunClient(const Config& config, size_t client_index,
               const std::vector<std::string>& ids, Tally* tally,
               const std::atomic<bool>* give_up) {
  Client client;
  if (!client.Connect(config.host, config.port)) {
    tally->transport_errors.fetch_add(1);
    return;
  }
  for (size_t round = 0; round < config.rounds; ++round) {
    for (size_t s = 0; s < ids.size(); ++s) {
      if (give_up->load()) {
        return;
      }
      bool answered = false;
      for (size_t attempt = 0; attempt <= config.max_retries; ++attempt) {
        const std::string id = StrFormat("c%zu-r%zu-s%zu-a%zu", client_index,
                                         round, s, attempt);
        std::string request = StrFormat(
            "{\"verb\":\"diagnose\",\"id\":\"%s\",\"scenario\":\"%s\"",
            id.c_str(), ids[s].c_str());
        if (config.hold_ms > 0) {
          request += StrFormat(",\"hold_ms\":%lld",
                               static_cast<long long>(config.hold_ms));
        }
        if (config.deadline_ms > 0) {
          request += StrFormat(",\"deadline_ms\":%lld",
                               static_cast<long long>(config.deadline_ms));
        }
        request += "}";

        tally->sent.fetch_add(1);
        const std::string raw = client.Call(request);
        if (raw.empty()) {
          tally->transport_errors.fetch_add(1);
          return;  // connection is gone; this client is done
        }
        auto parsed = svc::ParseJson(raw);
        if (!parsed.ok()) {
          tally->protocol_errors.fetch_add(1);
          answered = true;
          break;
        }
        const svc::JsonValue doc = std::move(parsed).value();
        // Exactly-one-response check: synchronous framing means the next
        // line on this connection must answer the id we just sent.
        if (Field(doc, "id") != id) {
          tally->protocol_errors.fetch_add(1);
          answered = true;
          break;
        }
        const std::string status = Field(doc, "status");
        if (status == "overloaded") {
          tally->overloaded.fetch_add(1);
          int64_t sleep_ms = config.retry_sleep_ms;
          const svc::JsonValue* hint = doc.Find("retry_after_ms");
          if (hint != nullptr && hint->AsInt() > sleep_ms) {
            sleep_ms = hint->AsInt();
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
          continue;
        }
        answered = true;
        if (status == "ok") {
          tally->ok.fetch_add(1);
        } else if (status == "degraded") {
          tally->degraded.fetch_add(1);
        } else if (status == "not_reproduced") {
          tally->not_reproduced.fetch_add(1);
        } else {
          tally->protocol_errors.fetch_add(1);
          break;
        }
        if (Field(doc, "cache") == "hit") {
          tally->cache_hits.fetch_add(1);
        }
        break;
      }
      if (!answered) {
        tally->retries_exhausted.fetch_add(1);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  auto need_value = [&](int& i) -> const char* {
    return i + 1 < argc ? argv[++i] : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") return Usage(stdout);
    if (arg == "--shutdown") {
      config.shutdown_after = true;
      continue;
    }
    if ((v = need_value(i)) == nullptr) {
      std::fprintf(stderr, "aitiad_loadgen: %s needs a value\n", arg.c_str());
      return Usage(stderr);
    }
    if (arg == "--host") {
      config.host = v;
    } else if (arg == "--port") {
      config.port = std::atoi(v);
    } else if (arg == "--clients") {
      config.clients = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--rounds") {
      config.rounds = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--scenarios") {
      std::string rest = v;
      size_t pos = 0;
      while (pos <= rest.size()) {
        const size_t comma = rest.find(',', pos);
        const size_t end = comma == std::string::npos ? rest.size() : comma;
        if (end > pos) config.scenarios.push_back(rest.substr(pos, end - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (arg == "--hold-ms") {
      config.hold_ms = std::atoll(v);
    } else if (arg == "--deadline-ms") {
      config.deadline_ms = std::atoll(v);
    } else if (arg == "--max-retries") {
      config.max_retries = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--retry-sleep-ms") {
      config.retry_sleep_ms = std::atoll(v);
    } else if (arg == "--expect-bounded-queue") {
      config.expect_bounded_queue = std::atoll(v);
    } else if (arg == "--timeout") {
      config.timeout_seconds = std::atof(v);
    } else {
      std::fprintf(stderr, "aitiad_loadgen: unknown flag '%s'\n", arg.c_str());
      return Usage(stderr);
    }
  }
  if (config.port <= 0) {
    std::fprintf(stderr, "aitiad_loadgen: --port is required\n");
    return Usage(stderr);
  }
  std::vector<std::string> ids = config.scenarios;
  if (ids.empty()) {
    for (const ScenarioEntry& entry : AllScenarios()) {
      ids.emplace_back(entry.id);
    }
  }

  Tally tally;
  std::atomic<bool> give_up{false};
  Stopwatch clock;
  std::vector<std::thread> workers;
  workers.reserve(config.clients);
  for (size_t c = 0; c < config.clients; ++c) {
    workers.emplace_back(RunClient, std::cref(config), c, std::cref(ids), &tally,
                         &give_up);
  }
  // Watchdog: a wedged daemon (the failure this driver exists to catch) must
  // fail the run, not hang it.
  std::thread watchdog([&] {
    while (!give_up.load() && clock.ElapsedSeconds() < config.timeout_seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    give_up.store(true);
  });
  for (std::thread& t : workers) {
    t.join();
  }
  const bool timed_out = clock.ElapsedSeconds() >= config.timeout_seconds;
  give_up.store(true);
  watchdog.join();

  // Final health probe on a fresh connection: the daemon must still answer,
  // and its own books must agree with the contract.
  int64_t queue_depth_peak = -1;
  int64_t duplicate_responses = -1;
  bool daemon_alive = false;
  {
    Client probe;
    if (probe.Connect(config.host, config.port)) {
      const std::string raw =
          probe.Call("{\"verb\":\"metrics\",\"id\":\"loadgen-metrics\"}");
      auto parsed = svc::ParseJson(raw);
      if (parsed.ok()) {
        const svc::JsonValue doc = std::move(parsed).value();
        daemon_alive = Field(doc, "status") == "ok";
        const svc::JsonValue* metrics = doc.Find("metrics");
        const svc::JsonValue* s =
            metrics != nullptr ? metrics->Find("svc") : nullptr;
        if (s != nullptr) {
          const svc::JsonValue* peak = s->Find("queue_depth_peak");
          if (peak != nullptr) queue_depth_peak = peak->AsInt();
          const svc::JsonValue* dup = s->Find("duplicate_responses");
          if (dup != nullptr) duplicate_responses = dup->AsInt();
        }
      }
      if (config.shutdown_after) {
        (void)probe.Call("{\"verb\":\"shutdown\",\"id\":\"loadgen-shutdown\"}");
      }
    }
  }

  const int64_t answered = tally.ok.load() + tally.degraded.load() +
                           tally.not_reproduced.load();
  bool pass = daemon_alive && !timed_out && tally.protocol_errors.load() == 0 &&
              tally.transport_errors.load() == 0 && duplicate_responses == 0 &&
              answered > 0;
  if (config.expect_bounded_queue > 0 &&
      queue_depth_peak > config.expect_bounded_queue) {
    pass = false;
  }

  std::printf(
      "{\"pass\":%s,\"daemon_alive\":%s,\"timed_out\":%s,"
      "\"elapsed_seconds\":%.2f,\"clients\":%zu,\"rounds\":%zu,"
      "\"scenario_count\":%zu,\"sent\":%lld,\"answered\":%lld,\"ok\":%lld,"
      "\"degraded\":%lld,\"not_reproduced\":%lld,\"overloaded_retried\":%lld,"
      "\"retries_exhausted\":%lld,\"cache_hits\":%lld,"
      "\"protocol_errors\":%lld,\"transport_errors\":%lld,"
      "\"queue_depth_peak\":%lld,\"duplicate_responses\":%lld}\n",
      pass ? "true" : "false", daemon_alive ? "true" : "false",
      timed_out ? "true" : "false", clock.ElapsedSeconds(), config.clients,
      config.rounds, ids.size(), static_cast<long long>(tally.sent.load()),
      static_cast<long long>(answered), static_cast<long long>(tally.ok.load()),
      static_cast<long long>(tally.degraded.load()),
      static_cast<long long>(tally.not_reproduced.load()),
      static_cast<long long>(tally.overloaded.load()),
      static_cast<long long>(tally.retries_exhausted.load()),
      static_cast<long long>(tally.cache_hits.load()),
      static_cast<long long>(tally.protocol_errors.load()),
      static_cast<long long>(tally.transport_errors.load()),
      static_cast<long long>(queue_depth_peak),
      static_cast<long long>(duplicate_responses));
  return pass ? 0 : 1;
}
