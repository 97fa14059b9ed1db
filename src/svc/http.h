// Hand-rolled HTTP/1.0 scrape plane for aitiad (DESIGN.md §15).
//
// A deliberately tiny read-only responder — no third-party HTTP stack —
// serving the three endpoints an operations loop needs:
//
//   GET /metrics   Prometheus text exposition 0.0.4 of the metrics registry
//   GET /healthz   "ok" while the process is serving
//   GET /statusz   service health JSON (uptime, queue depth/peak, cache hit
//                  rate, in-flight, drain state)
//
// Scope limits, on purpose: GET only (anything else is 405), one request per
// connection (HTTP/1.0, Connection: close), request line + headers capped at
// 4 KiB, reads bounded by a socket timeout so a stalled scraper cannot wedge
// the responder. The server binds 127.0.0.1 only, mirroring the diagnosis
// port. Body producers are injected callbacks, so the server owns no
// knowledge of daemon internals and tests can drive it hermetically.

#ifndef SRC_SVC_HTTP_H_
#define SRC_SVC_HTTP_H_

#include <atomic>
#include <functional>
#include <string>
#include <thread>

#include "src/util/status.h"

namespace aitia {
namespace svc {

struct HttpServerOptions {
  // Port to bind on 127.0.0.1; 0 picks an ephemeral port (see port()).
  int port = 0;
  // Body producers. A null callback 404s its endpoint.
  std::function<std::string()> metrics;  // text/plain; version=0.0.4
  std::function<std::string()> statusz;  // application/json
  // True while the process is healthy; null means "always ok".
  std::function<bool()> healthy;
};

class HttpServer {
 public:
  explicit HttpServer(HttpServerOptions options);
  ~HttpServer();  // Stop()s

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds, listens, and starts the accept thread. Fails with kUnavailable
  // when the port cannot be bound.
  Status Start();

  // The bound port (after Start(); useful with port 0).
  int port() const { return port_; }

  // Stops accepting, wakes the accept loop, joins. Idempotent.
  void Stop();

 private:
  void Serve();
  void HandleConnection(int fd);

  const HttpServerOptions options_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

// Renders one HTTP/1.0 response (status line, minimal headers, body).
// Exposed for the responder tests' independent round-trip checks.
std::string HttpResponse(int code, const char* reason, const std::string& content_type,
                         const std::string& body);

}  // namespace svc
}  // namespace aitia

#endif  // SRC_SVC_HTTP_H_
