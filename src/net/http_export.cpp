#include "net/http_export.h"

#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "util/logging.h"

// A scraper hanging up mid-response (curl timeout, Prometheus deadline)
// must surface as a failed send, not a process-killing SIGPIPE.
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace beehive {

namespace {

/// Writes the full buffer, retrying on short writes. EPIPE (peer closed)
/// is a failed send like any other.
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                       MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string http_response(int code, const char* status,
                          const char* content_type, const std::string& body) {
  std::string out = "HTTP/1.0 " + std::to_string(code) + " " + status +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

std::string unavailable() {
  return http_response(503, "Service Unavailable", "text/plain",
                       "detached: the cluster behind this endpoint is "
                       "shutting down\n");
}

}  // namespace

HttpExportServer::HttpExportServer(const MetricsRegistry& registry,
                                   std::uint16_t port)
    : registry_(&registry) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("http_export: socket() failed");
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("http_export: bind(127.0.0.1:" +
                             std::to_string(port) + ") failed");
  }
  if (::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("http_export: listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  BH_INFO << "http_export: serving /metrics, /status.json, /health.json "
          << "and /traces.json on 127.0.0.1:" << port_;
}

HttpExportServer::~HttpExportServer() { stop(); }

void HttpExportServer::set_status_source(
    std::function<std::string()> source) {
  std::lock_guard lock(mutex_);
  status_source_ = std::move(source);
}

void HttpExportServer::set_health_source(
    std::function<std::string()> source) {
  std::lock_guard lock(mutex_);
  health_source_ = std::move(source);
}

void HttpExportServer::set_traces_source(
    std::function<std::string()> source) {
  std::lock_guard lock(mutex_);
  traces_source_ = std::move(source);
}

void HttpExportServer::detach() {
  // A request holds the lock while it reads the registry or runs a source:
  // taking it here waits that request out.
  std::lock_guard lock(mutex_);
  registry_ = nullptr;
  status_source_ = nullptr;
  health_source_ = nullptr;
  traces_source_ = nullptr;
}

void HttpExportServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Shutting the listening socket down unblocks accept() with an error;
  // shutting down the in-flight client (if any) unblocks a handler stuck
  // in recv()/send() on a stalled scraper. The listening socket is closed
  // only after the join: the loop reads listen_fd_ until it exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard lock(client_mutex_);
    if (client_fd_ >= 0) ::shutdown(client_fd_, SHUT_RDWR);
  }
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpExportServer::serve_loop() {
  while (running_.load(std::memory_order_acquire)) {
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (!running_.load(std::memory_order_acquire)) break;
      continue;  // transient accept failure
    }
    // A client that connects and then never sends must not wedge the
    // single-threaded accept loop: bound the read (and any stalled send).
    timeval tv{};
    tv.tv_sec = 2;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    {
      std::lock_guard lock(client_mutex_);
      client_fd_ = client;
    }
    handle_connection(client);
    {
      std::lock_guard lock(client_mutex_);
      client_fd_ = -1;
    }
    ::close(client);
  }
}

void HttpExportServer::handle_connection(int client_fd) {
  // One read is enough for the request line of any sane GET; we only need
  // the path.
  char buf[2048];
  ssize_t n = ::recv(client_fd, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return;
  buf[n] = '\0';

  const char* line_end = std::strstr(buf, "\r\n");
  std::string request_line(buf, line_end != nullptr
                                    ? static_cast<std::size_t>(line_end - buf)
                                    : static_cast<std::size_t>(n));
  // "GET /path HTTP/1.x"
  std::string method, path;
  if (auto sp1 = request_line.find(' '); sp1 != std::string::npos) {
    method = request_line.substr(0, sp1);
    auto sp2 = request_line.find(' ', sp1 + 1);
    path = request_line.substr(sp1 + 1, sp2 == std::string::npos
                                            ? std::string::npos
                                            : sp2 - sp1 - 1);
  }

  std::string response;
  {
    std::lock_guard lock(mutex_);
    response = respond(method, path);
  }
  if (send_all(client_fd, response)) {
    served_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::string HttpExportServer::respond(const std::string& method,
                                      const std::string& path) const {
  if (method != "GET") {
    return http_response(405, "Method Not Allowed", "text/plain",
                         "only GET is supported\n");
  }
  const auto json_from = [](const std::function<std::string()>& source) {
    return source ? http_response(200, "OK", "application/json", source())
                  : unavailable();
  };
  if (path == "/metrics") {
    return registry_ == nullptr
               ? unavailable()
               : http_response(200, "OK",
                               "text/plain; version=0.0.4; charset=utf-8",
                               registry_->prometheus_text());
  }
  if (path == "/status.json") {
    if (!status_source_ && registry_ != nullptr) {
      return http_response(200, "OK", "application/json",
                           registry_->status_json());
    }
    return json_from(status_source_);
  }
  if (path == "/health.json") return json_from(health_source_);
  if (path == "/traces.json") return json_from(traces_source_);
  if (path == "/" || path == "/index.html") {
    return http_response(200, "OK", "text/plain",
                         "beehive exposition endpoints:\n  /metrics\n"
                         "  /status.json\n  /health.json\n"
                         "  /traces.json\n");
  }
  return http_response(404, "Not Found", "text/plain",
                       "unknown path; try /metrics, /status.json, "
                       "/health.json or /traces.json\n");
}

}  // namespace beehive
