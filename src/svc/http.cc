#include "src/svc/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/log.h"
#include "src/util/strings.h"

namespace aitia {
namespace svc {

namespace {

// Request line + headers larger than this are rejected; scrape requests are
// a few hundred bytes.
constexpr size_t kMaxRequestBytes = 4096;
// Socket receive timeout while reading a request (2 s).
constexpr timeval kReadTimeout = {2, 0};

void SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return;  // scraper went away; nothing to salvage
    }
    off += static_cast<size_t>(n);
  }
}

}  // namespace

std::string HttpResponse(int code, const char* reason, const std::string& content_type,
                         const std::string& body) {
  return StrFormat(
      "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n%s",
      code, reason, content_type.c_str(), body.size(), body.c_str());
}

HttpServer::HttpServer(HttpServerOptions options) : options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (pipe(stop_pipe_) != 0) {
    return Status::Unavailable(StrFormat("http: pipe: %s", std::strerror(errno)));
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(StrFormat("http: socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(listen_fd_, 16) != 0) {
    const Status status =
        Status::Unavailable(StrFormat("http: bind/listen on port %d: %s", options_.port,
                                      std::strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof addr;
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = static_cast<int>(ntohs(addr.sin_port));
  thread_ = std::thread([this] { Serve(); });
  return Status();
}

void HttpServer::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    if (thread_.joinable()) {
      thread_.join();
    }
    return;
  }
  if (stop_pipe_[1] >= 0) {
    const char byte = 1;
    (void)!write(stop_pipe_[1], &byte, 1);
  }
  if (thread_.joinable()) {
    thread_.join();
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : stop_pipe_) {
    if (fd >= 0) {
      close(fd);
      fd = -1;
    }
  }
}

void HttpServer::Serve() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int rc = poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    if ((fds[1].revents & POLLIN) != 0 || stopping_.load(std::memory_order_acquire)) {
      return;
    }
    if ((fds[0].revents & POLLIN) == 0) {
      continue;
    }
    const int client = accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      continue;
    }
    // Requests are handled inline on the accept thread: bodies are built
    // from in-memory snapshots in microseconds, and the read timeout bounds
    // how long a stalled scraper can hold the loop.
    setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &kReadTimeout, sizeof kReadTimeout);
    HandleConnection(client);
    close(client);
  }
}

void HttpServer::HandleConnection(int fd) {
  static obs::Counter* const requests =
      obs::MetricsRegistry::Global().GetCounter("svc.http_requests");
  requests->Increment();

  // Read until the header terminator (we ignore headers, but draining them
  // keeps clients that send them happy) or the size cap.
  std::string request;
  char chunk[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const ssize_t n = recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;  // EOF, timeout, or error
    }
    request.append(chunk, static_cast<size_t>(n));
    // A bare "GET /path HTTP/1.0\n" with no headers is complete too.
    if (request.find('\n') != std::string::npos) {
      break;
    }
  }

  const size_t line_end = request.find_first_of("\r\n");
  const std::string line = request.substr(0, line_end);
  // "GET <path> HTTP/1.x" — method and path split on single spaces.
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    SendAll(fd, HttpResponse(400, "Bad Request", "text/plain; charset=utf-8",
                             "malformed request line\n"));
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (const size_t q = path.find('?'); q != std::string::npos) {
    path.resize(q);  // the endpoints take no parameters
  }
  if (method != "GET") {
    SendAll(fd, HttpResponse(405, "Method Not Allowed", "text/plain; charset=utf-8",
                             "only GET is supported\n"));
    return;
  }

  if (path == "/healthz") {
    const bool ok = options_.healthy == nullptr || options_.healthy();
    SendAll(fd, HttpResponse(ok ? 200 : 503, ok ? "OK" : "Service Unavailable",
                             "text/plain; charset=utf-8", ok ? "ok\n" : "draining\n"));
    return;
  }
  if (path == "/metrics" && options_.metrics != nullptr) {
    SendAll(fd, HttpResponse(200, "OK", "text/plain; version=0.0.4; charset=utf-8",
                             options_.metrics()));
    return;
  }
  if (path == "/statusz" && options_.statusz != nullptr) {
    SendAll(fd, HttpResponse(200, "OK", "application/json", options_.statusz()));
    return;
  }
  SendAll(fd, HttpResponse(404, "Not Found", "text/plain; charset=utf-8",
                           "unknown path; try /metrics /healthz /statusz\n"));
}

}  // namespace svc
}  // namespace aitia
