// aitiad — the long-running diagnosis daemon (DESIGN.md §11).
//
// Serves diagnosis requests as line-delimited JSON, one request object per
// line, exactly one response object per request:
//
//   $ aitiad --port 7433                     # TCP on 127.0.0.1:7433
//   $ aitiad --port 0                        # ephemeral port, printed on stdout
//   $ printf '%s\n' '{"verb":"diagnose","scenario":"fig-1"}' | aitiad --once
//
// Robustness story (the point of this binary):
//   - bounded sharded admission queue: floods get immediate "overloaded"
//     rejections with a retry_after_ms hint, never unbounded memory;
//   - per-request deadlines: a pathological scenario degrades *itself*,
//     not the worker it runs on;
//   - crash-isolated requests: malformed input, unknown ids, and pipeline
//     failures become structured error responses while the daemon serves on;
//   - graceful drain on SIGTERM/SIGINT (or the "shutdown" verb): stop
//     admitting, finish or deadline-out in-flight work, flush metrics,
//     exit 0;
//   - optional chaos mode (--chaos-*): seed-deterministic fault injection
//     inside every diagnosis, for load/soak drivers.
//
// Exit codes: 0 clean drain, 1 fatal runtime error (bind/listen), 2 usage.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/prometheus.h"
#include "src/svc/daemon.h"
#include "src/svc/http.h"
#include "src/tools/options.h"
#include "src/util/log.h"
#include "src/util/strings.h"

namespace {

using namespace aitia;

// Metrics flight record. Registered with atexit and also written the moment
// the drain starts, so hard exits — chaos drivers SIGKILLing mid-drain, a
// cancel path that aborts — still leave a non-empty record behind instead of
// the zero-byte probe file. The graceful path overwrites it with the final
// snapshot.
std::string g_metrics_json_path;

void FlushMetricsJson() {
  if (g_metrics_json_path.empty()) {
    return;
  }
  std::ofstream out(g_metrics_json_path, std::ios::binary | std::ios::trunc);
  out << svc::Daemon::MetricsJson() << "\n";
  out.flush();
}

// Signal handling: the handler only writes one byte to a self-pipe; the
// accept loop polls it alongside the listen socket, so a SIGTERM mid-accept
// wakes the drain path without any async-signal-unsafe work.
int g_signal_pipe[2] = {-1, -1};
std::atomic<int> g_signal{0};

void OnSignal(int sig) {
  g_signal.store(sig);
  const char byte = 1;
  // Best-effort: if the pipe is full a wakeup is already pending.
  (void)!write(g_signal_pipe[1], &byte, 1);
}

int Usage(FILE* to) {
  std::fprintf(to,
               "usage: aitiad (--port N | --once) [options]\n"
               "\n"
               "  --port N            listen on 127.0.0.1:N (0 = ephemeral, printed on stdout)\n"
               "  --once              serve line-delimited JSON requests on stdin, respond on\n"
               "                      stdout, drain and exit 0 at EOF (no networking)\n"
               "  --http-port N       HTTP scrape plane on 127.0.0.1:N (0 = ephemeral,\n"
               "                      printed on stdout): /metrics /healthz /statusz\n"
               "  --workers N         diagnosis worker threads (default 2)\n"
               "  --queue-shards N    admission queue shards (default 4)\n"
               "  --shard-capacity N  queued requests per shard (default 8)\n"
               "  --cache-capacity N  result-cache entries, 0 disables (default 128)\n"
               "  --deadline-ms N     default per-request budget (default 20000)\n"
               "  --drain-grace-ms N  drain wait before cancelling in-flight work (default 5000)\n"
               "  --retry-after-ms N  hint attached to overloaded rejections (default 50)\n"
               "  --metrics-json F    write the final metrics snapshot to F on exit\n"
               "  --chaos-seed S      fault-injection seed (enables nothing by itself)\n"
               "  --chaos-drop P      per-mille dropped preemption points\n"
               "  --chaos-wakeup P    per-mille spurious wakeups (per step)\n"
               "  --chaos-abort P     per-mille aborted runs\n"
               "%s"
               "\n"
               "protocol: one JSON object per line; see README 'aitiad request protocol'.\n",
               aitia::tools::SharedFlagsHelp());
  return to == stdout ? 0 : 2;
}

// One client connection: a reader thread that admits every received line and
// a shared writer guarded by a mutex (responses complete out of order).
struct Connection {
  int fd = -1;
  std::thread reader;
  std::mutex write_mu;
  std::atomic<int64_t> pending{0};  // admitted requests awaiting a response

  void WriteLine(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mu);
    std::string out = line;
    out += '\n';
    size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) {
          continue;
        }
        return;  // client went away; the response is undeliverable, drop it
      }
      off += static_cast<size_t>(n);
    }
  }
};

struct ServerState {
  svc::Daemon* daemon = nullptr;
  size_t max_line = 1 << 20;
  std::mutex conns_mu;
  std::vector<std::unique_ptr<Connection>> conns;
};

void ServeConnection(ServerState* state, Connection* conn) {
  std::string buffer;
  char chunk[4096];
  bool overlong = false;  // discarding an oversized line until its newline
  for (;;) {
    const ssize_t n = recv(conn->fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;  // EOF or error (including shutdown() during exit)
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (;;) {
      const size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) {
        break;
      }
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      if (overlong) {
        overlong = false;  // the tail of a line we already rejected
        continue;
      }
      if (line.empty()) {
        continue;
      }
      conn->pending.fetch_add(1);
      // Terminal responses and stream frames share the connection's
      // mutex-guarded writer, and the daemon flushes every frame before the
      // terminal — a mid-stream disconnect just drops writes on the floor.
      state->daemon->Submit(
          std::move(line),
          [conn](std::string response) {
            conn->WriteLine(response);
            conn->pending.fetch_sub(1);
          },
          [conn](std::string frame) { conn->WriteLine(frame); });
    }
    buffer.erase(0, start);
    if (buffer.size() > state->max_line) {
      // A line longer than the request limit: reject once, then discard
      // bytes until its terminating newline instead of buffering them.
      conn->WriteLine(
          "{\"id\":\"\",\"status\":\"invalid_argument\",\"error\":\"request line too long\"}");
      buffer.clear();
      overlong = true;
    }
  }
  // Give in-flight requests from this connection a moment to flush their
  // responses before the fd is closed under them.
  while (conn->pending.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  close(conn->fd);
}

int RunOnce(svc::Daemon& daemon) {
  std::string line;
  // Frames interleave with terminals on stdout; both are full lines, and
  // HandleLine only returns after every frame of its request was printed.
  std::mutex stdout_mu;
  const auto print_line = [&stdout_mu](const std::string& text) {
    std::lock_guard<std::mutex> lock(stdout_mu);
    std::printf("%s\n", text.c_str());
    std::fflush(stdout);
  };
  while (std::getline(std::cin, line)) {
    if (line.empty()) {
      continue;
    }
    print_line(daemon.HandleLine(line, print_line));
    if (daemon.shutdown_requested()) {
      break;
    }
  }
  daemon.Drain();
  return 0;
}

int RunServer(svc::Daemon& daemon, int port, int http_port, size_t max_line) {
  if (pipe(g_signal_pipe) != 0) {
    std::perror("aitiad: pipe");
    return 1;
  }
  struct sigaction sa = {};
  sa.sa_handler = OnSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);

  const int listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("aitiad: socket");
    return 1;
  }
  const int one = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(listen_fd, 64) != 0) {
    std::perror("aitiad: bind/listen");
    close(listen_fd);
    return 1;
  }
  socklen_t addr_len = sizeof addr;
  getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  // The parseable startup line drivers wait for (must be first on stdout).
  std::printf("aitiad: listening on 127.0.0.1:%d\n", ntohs(addr.sin_port));
  std::fflush(stdout);

  // Scrape plane (optional): read-only views of the registry and the
  // daemon's health; it keeps serving through the drain so a final scrape
  // can capture the shutdown, and stops after it.
  std::unique_ptr<svc::HttpServer> http;
  if (http_port >= 0) {
    svc::HttpServerOptions ho;
    ho.port = http_port;
    ho.metrics = [] {
      return obs::ToPrometheusText(obs::MetricsRegistry::Global().Snapshot());
    };
    ho.statusz = [&daemon] { return daemon.StatusJson(); };
    ho.healthy = [&daemon] { return !daemon.draining(); };
    http = std::make_unique<svc::HttpServer>(ho);
    if (const Status status = http->Start(); !status.ok()) {
      std::fprintf(stderr, "aitiad: %s\n", status.ToString().c_str());
      close(listen_fd);
      return 1;
    }
    std::printf("aitiad: http on 127.0.0.1:%d\n", http->port());
    std::fflush(stdout);
  }

  ServerState state;
  state.daemon = &daemon;
  state.max_line = max_line;

  for (;;) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {g_signal_pipe[0], POLLIN, 0}};
    const int rc = poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) {
        if (g_signal.load() != 0 || daemon.shutdown_requested()) {
          break;
        }
        continue;
      }
      std::perror("aitiad: poll");
      break;
    }
    if ((fds[1].revents & POLLIN) != 0 || g_signal.load() != 0 ||
        daemon.shutdown_requested()) {
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      const int client = accept(listen_fd, nullptr, nullptr);
      if (client < 0) {
        continue;
      }
      auto conn = std::make_unique<Connection>();
      conn->fd = client;
      Connection* raw = conn.get();
      conn->reader = std::thread([&state, raw] { ServeConnection(&state, raw); });
      std::lock_guard<std::mutex> lock(state.conns_mu);
      state.conns.push_back(std::move(conn));
    }
  }

  // Graceful drain: stop accepting, let admitted work finish (or deadline
  // out after the grace period), then cut the remaining connections loose.
  const int sig = g_signal.load();
  AITIA_LOG(kInfo) << "aitiad: "
                   << (sig != 0 ? strsignal(sig) : "shutdown request")
                   << " received, draining";
  close(listen_fd);
  // Provisional flight record before the drain: if the hard-cancel path
  // wedges or the process is killed mid-drain, the record is non-empty.
  FlushMetricsJson();
  daemon.Drain();
  if (http != nullptr) {
    http->Stop();
  }
  {
    std::lock_guard<std::mutex> lock(state.conns_mu);
    for (auto& conn : state.conns) {
      shutdown(conn->fd, SHUT_RDWR);  // unblocks the reader threads
    }
  }
  {
    std::lock_guard<std::mutex> lock(state.conns_mu);
    for (auto& conn : state.conns) {
      if (conn->reader.joinable()) {
        conn->reader.join();
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  InitLogLevelFromEnv();

  int port = -1;
  int http_port = -1;
  bool once = false;
  std::string metrics_json_path;
  svc::DaemonOptions options;
  aitia::tools::SharedFlags shared;

  auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "aitiad: %s needs a value\n", flag);
      return nullptr;
    }
    return argv[++i];
  };
  auto parse_u64 = [](const char* text, uint64_t& out) -> bool {
    if (text == nullptr || *text == '\0' ||
        std::string(text).find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    out = std::strtoull(text, nullptr, 10);
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    uint64_t value = 0;
    const aitia::tools::ParseResult pr =
        aitia::tools::ParseSharedFlag("aitiad", argc, argv, i, shared);
    if (pr == aitia::tools::ParseResult::kError) {
      return Usage(stderr);
    }
    if (pr == aitia::tools::ParseResult::kParsed) {
      continue;
    }
    if (arg == "--once") {
      once = true;
    } else if (arg == "--port") {
      if (!parse_u64(need_value(i, "--port"), value) || value > 65535) {
        return Usage(stderr);
      }
      port = static_cast<int>(value);
    } else if (arg == "--http-port") {
      if (!parse_u64(need_value(i, "--http-port"), value) || value > 65535) {
        return Usage(stderr);
      }
      http_port = static_cast<int>(value);
    } else if (arg == "--workers") {
      if (!parse_u64(need_value(i, "--workers"), value)) return Usage(stderr);
      options.workers = value;
    } else if (arg == "--queue-shards") {
      if (!parse_u64(need_value(i, "--queue-shards"), value)) return Usage(stderr);
      options.queue_shards = value;
    } else if (arg == "--shard-capacity") {
      if (!parse_u64(need_value(i, "--shard-capacity"), value)) return Usage(stderr);
      options.shard_capacity = value;
    } else if (arg == "--cache-capacity") {
      if (!parse_u64(need_value(i, "--cache-capacity"), value)) return Usage(stderr);
      options.cache_capacity = value;
    } else if (arg == "--deadline-ms") {
      if (!parse_u64(need_value(i, "--deadline-ms"), value)) return Usage(stderr);
      options.default_deadline_ms = static_cast<int64_t>(value);
    } else if (arg == "--drain-grace-ms") {
      if (!parse_u64(need_value(i, "--drain-grace-ms"), value)) return Usage(stderr);
      options.drain_grace_ms = static_cast<int64_t>(value);
    } else if (arg == "--retry-after-ms") {
      if (!parse_u64(need_value(i, "--retry-after-ms"), value)) return Usage(stderr);
      options.retry_after_ms = static_cast<int64_t>(value);
    } else if (arg == "--metrics-json") {
      const char* v = need_value(i, "--metrics-json");
      if (v == nullptr) return Usage(stderr);
      metrics_json_path = v;
    } else if (arg == "--chaos-seed") {
      if (!parse_u64(need_value(i, "--chaos-seed"), value)) return Usage(stderr);
      options.faults.seed = value;
    } else if (arg == "--chaos-drop") {
      if (!parse_u64(need_value(i, "--chaos-drop"), value)) return Usage(stderr);
      options.faults.drop_preemption_point = static_cast<uint32_t>(value);
    } else if (arg == "--chaos-wakeup") {
      if (!parse_u64(need_value(i, "--chaos-wakeup"), value)) return Usage(stderr);
      options.faults.spurious_wakeup = static_cast<uint32_t>(value);
    } else if (arg == "--chaos-abort") {
      if (!parse_u64(need_value(i, "--chaos-abort"), value)) return Usage(stderr);
      options.faults.abort_run = static_cast<uint32_t>(value);
    } else if (arg == "--help" || arg == "-h") {
      return Usage(stdout);
    } else {
      std::fprintf(stderr, "aitiad: unknown flag '%s'\n", arg.c_str());
      return Usage(stderr);
    }
  }
  if (once == (port >= 0)) {
    std::fprintf(stderr, "aitiad: pass exactly one of --port or --once\n");
    return Usage(stderr);
  }
  options.triage_stages = aitia::tools::ResolveTriagePipeline(shared);

  // Probe the metrics destination upfront: an unwritable path must fail at
  // startup, not swallow the flight record at exit. The probe writes a
  // provisional (near-empty) snapshot rather than zero bytes, and atexit
  // re-flushes on *every* exit path — hard-cancel exits included — so chaos
  // flight records are never empty.
  if (!metrics_json_path.empty()) {
    std::ofstream probe(metrics_json_path, std::ios::binary | std::ios::trunc);
    if (!probe || !(probe << svc::Daemon::MetricsJson() << "\n").flush()) {
      std::fprintf(stderr, "aitiad: cannot open metrics output file: %s\n",
                   metrics_json_path.c_str());
      return 2;
    }
    g_metrics_json_path = metrics_json_path;
    std::atexit(FlushMetricsJson);
  }

  int exit_code;
  {
    svc::Daemon daemon(options);
    exit_code =
        once ? RunOnce(daemon) : RunServer(daemon, port, http_port, options.max_request_bytes);
    daemon.Drain();
  }
  if (!metrics_json_path.empty()) {
    std::ofstream out(metrics_json_path, std::ios::binary | std::ios::trunc);
    out << svc::Daemon::MetricsJson() << "\n";
    if (!out.flush()) {
      std::fprintf(stderr, "aitiad: failed writing %s\n", metrics_json_path.c_str());
      return 1;
    }
  }
  return exit_code;
}
