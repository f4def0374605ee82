// Minimal HTTP/1.0 exposition endpoint for the threaded runtime.
//
// Serves GET /metrics (Prometheus text exposition format, straight from a
// MetricsRegistry) and three JSON documents, each from exactly one
// producer callback: /status.json (the StatusApp's snapshot),
// /health.json (a cluster HealthReport) and /traces.json (assembled slow
// traces). A path whose producer is unset answers 503. So a running
// ThreadCluster can be scraped by standard tooling (curl, Prometheus,
// beectl).
//
// Deliberately tiny: one accept-loop thread, one short-lived connection
// per request (HTTP/1.0, Connection: close), no keep-alive, no TLS, bound
// to 127.0.0.1. This is an operational side door, not a web server.
//
// Shutdown discipline: one mutex guards the registry pointer and the
// source callbacks. A request holds it while it reads the registry or runs
// a source (never while it sends), and detach() takes it to clear them, so
// once detach() returns no request touches the registry or a source again,
// and a server that outlives its cluster answers 503. stop() additionally
// shuts down any in-flight client socket so a stalled scraper cannot block
// the join.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "instrument/registry.h"

namespace beehive {

class HttpExportServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral; read the chosen one back with
  /// port()) and starts the accept loop. Throws std::runtime_error when
  /// the socket can't be bound.
  HttpExportServer(const MetricsRegistry& registry, std::uint16_t port = 0);
  ~HttpExportServer();

  HttpExportServer(const HttpExportServer&) = delete;
  HttpExportServer& operator=(const HttpExportServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Sets the /status.json body producer (e.g. StatusApp::report_from_store
  /// run on the status bee's thread, as examples/quickstart.cpp does).
  /// Unset = 503 on that path. Like the other sources, the callback runs
  /// on the server thread and must be thread-safe with respect to the
  /// cluster.
  void set_status_source(std::function<std::string()> source);

  /// Sets the /health.json body producer (e.g. ThreadCluster::health_json
  /// wrapped in a lambda). Unset = 503 on that path.
  void set_health_source(std::function<std::string()> source);

  /// Sets the /traces.json body producer (e.g. ThreadCluster::traces_json
  /// wrapped in a lambda). Unset = 503 on that path.
  void set_traces_source(std::function<std::string()> source);

  /// Disconnects the server from the registry and the source callbacks:
  /// every subsequent request answers 503 Service Unavailable. Waits for a
  /// request that is reading the registry or running a source to finish,
  /// so it must not be called from inside a source. Call before destroying
  /// the cluster that owns the registry when the server object outlives
  /// it — scrapes that race the teardown then get a clean error instead of
  /// a use-after-free.
  void detach();

  /// Stops the accept loop and joins the thread (also run by ~).
  void stop();

  /// Requests served so far (tests).
  std::uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  void serve_loop();
  void handle_connection(int client_fd);
  /// The full HTTP response for one request. Caller holds mutex_.
  std::string respond(const std::string& method,
                      const std::string& path) const;

  /// Guards the registry pointer and the sources; held by a request while
  /// it uses them (see detach()).
  mutable std::mutex mutex_;
  const MetricsRegistry* registry_;
  std::function<std::string()> status_source_;
  std::function<std::string()> health_source_;
  std::function<std::string()> traces_source_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> served_{0};
  /// The connection currently being handled (-1 when idle), so stop() can
  /// shut it down and unblock a handler stuck in recv/send.
  std::mutex client_mutex_;
  int client_fd_ = -1;
  std::thread thread_;
};

}  // namespace beehive
