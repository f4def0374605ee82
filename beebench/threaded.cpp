// lsw_local and seattle_remote: closed-loop clients against a 2-hive
// ThreadCluster with default configuration (1 s metrics timer and 20 us
// dispatch delay on; reliable transport, overload control and replication
// off) apart from core pinning (see kGeneratorCpu); the process runs with
// 1 ns timer slack (see kTimerSlackNs). The calling thread is
// the generator, so the run uses three threads: two hive loops and this
// one.
//
// Load is Cbench-style: N clients, each sending its next request only when
// the sink bee has seen the reply to its previous one. N = 256 measures
// throughput with both hives saturated; N = 4 measures latency with the
// hives mostly parked.
#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/host_location.h"
#include "apps/learning_switch.h"
#include "apps/messages.h"
#include "cluster/thread_cluster.h"
#include "core/context.h"
#include "ledger.h"
#include "model.h"
#include "replay.h"
#include "stats.h"
#include "workloads.h"

namespace beebench {
namespace {

using namespace beehive;

constexpr HiveId kHives = 2;
constexpr std::size_t kThroughputClients = 256;  // Cbench throughput mode
constexpr std::size_t kLatencyClients = 4;       // Cbench latency mode
constexpr std::size_t kMaxClients = 256;

// lsw_local: 64 switches, half mastered by each hive, 64 hosts each.
constexpr std::uint32_t kSwitches = 64;
constexpr std::uint32_t kHostsPerSwitch = 64;
constexpr std::uint16_t kPorts = 48;

// seattle_remote: 4096 hosts in 64 directory buckets.
constexpr std::size_t kBuckets = 64;
constexpr std::uint32_t kHosts = 4096;

constexpr double kDrainTimeoutS = 2.0;
constexpr std::size_t kMaxTracedRequests = 1 << 20;  // traced-phase buffer
constexpr std::size_t kSpansWritten = 20000;  // requests exported at exit

enum class Kind { kLsw, kSeattle };

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

HiveId lsw_master(std::uint32_t sw) { return sw % kHives; }

// A HostLookup's query id carries the slot of the client that sent it,
// that request's generation, and the hive it entered (where the sink bee
// that receives the reply lives).
std::uint64_t query_id(std::uint64_t gen, std::size_t slot, HiveId entry) {
  return (gen << 9) | (static_cast<std::uint64_t>(slot) << 1) | entry;
}
HiveId query_hive(std::uint64_t qid) { return static_cast<HiveId>(qid & 1); }
std::size_t query_slot(std::uint64_t qid) { return (qid >> 1) & 0xff; }
std::uint64_t query_gen(std::uint64_t qid) { return qid >> 9; }

std::uint64_t lsw_mac(std::uint32_t sw, std::uint32_t host) {
  return 0x020000000000ull | (std::uint64_t{sw} << 8) | host;
}
std::uint64_t seattle_mac(std::uint32_t host) {
  return 0x020100000000ull | host;
}

/// One reply as the sink bee saw it.
struct Completion {
  std::uint64_t id = 0;   ///< HostLocation query id (0 for PacketOut)
  std::uint64_t mac = 0;  ///< PacketOut dst / HostLocation host
  std::uint32_t sw = 0;
  std::uint16_t port = 0;
  bool found = false;
  std::int64_t at_ns = 0;  ///< when the sink handler ran
};

/// Single-producer (the sink on one hive thread), single-consumer (the
/// generator) ring. Capacity exceeds the most requests ever outstanding.
class CompletionRing {
 public:
  bool push(const Completion& c) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) == kCapacity) return false;
    slots_[t % kCapacity] = c;
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }
  bool pop(Completion& c) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return false;
    c = slots_[h % kCapacity];
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

 private:
  static constexpr std::size_t kCapacity = 1024;
  std::array<Completion, kCapacity> slots_{};
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

struct Sinks {
  std::array<CompletionRing, kHives> rings;
  std::atomic<std::uint64_t> overflow{0};

  void push(HiveId hive, const Completion& c) {
    if (hive >= kHives || !rings[hive].push(c)) {
      overflow.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

/// The benchmark's sink: receives the workload's replies on the hive the
/// request entered (one cell per hive, pinned there by the placement hook)
/// and hands them to the generator.
class SinkApp : public App {
 public:
  static constexpr std::string_view kDict = "bench.sink";

  explicit SinkApp(Sinks* sinks) : App("bench.sink") {
    const std::string dict(kDict);
    on<PacketOut>(
        [dict](const PacketOut& m) {
          return CellSet::single(dict, std::to_string(lsw_master(m.sw)));
        },
        [sinks](AppContext& ctx, const PacketOut& m) {
          sinks->push(ctx.hive(),
                      {0, m.dst_mac, m.sw, m.out_port, true, now_ns()});
        });
    on<HostLocation>(
        [dict](const HostLocation& m) {
          return CellSet::single(dict, std::to_string(query_hive(m.query_id)));
        },
        [sinks](AppContext& ctx, const HostLocation& m) {
          sinks->push(ctx.hive(),
                      {m.query_id, m.mac, m.sw, m.port, m.found, now_ns()});
        });
  }
};

/// What one request asks; the generator draws these from the seed.
struct Spec {
  std::uint32_t sw = 0;  ///< lsw: switch; seattle: a move's new switch
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint16_t port = 0;  ///< lsw: in_port; seattle: a move's new port
  std::uint32_t host = 0;  ///< seattle
  bool move = false;       ///< seattle: HostRegister, then the lookup
};

struct Slot {
  bool busy = false;
  std::uint64_t gen = 0;
  std::int64_t sent_ns = 0;  ///< generator began the request
  std::int64_t post_ns = 0;  ///< traced: ThreadCluster::post called
  // Traced: stamped on the hive thread by the posted closure. Read by the
  // generator only after the reply's ring pop (same hive thread pushed it).
  std::int64_t start_ns = 0;
  std::int64_t injected_ns = 0;
  std::uint64_t mac = 0;  ///< seattle: host asked about
  DirectoryOracle::Location want;
  std::uint64_t seq = 0;  ///< request number (span id)
};

/// One traced request's timestamps; its spans are derived from them.
struct RequestTrace {
  std::uint64_t id = 0;
  HiveId hive = 0;
  std::int64_t sent = 0, post = 0, start = 0, injected = 0, sink = 0;
};

/// Per-hive state read on the hive's own thread.
struct HiveSample {
  std::int64_t cpu_ns = 0;
  std::int64_t wall_ns = 0;
  std::uint64_t routed_local = 0, routed_remote = 0, handler_runs = 0;
  std::uint64_t handler_failures = 0, registry_failures = 0, shed = 0;
  std::uint64_t migration_aborts = 0, migrations = 0;
  std::uint64_t client_hits = 0, client_misses = 0;
};

/// A cluster-wide sample: every hive's, plus the channel meter and the
/// registry shards (both safe to read from any thread).
struct Sample {
  std::array<HiveSample, kHives> hive{};
  std::array<std::atomic<bool>, kHives> ready{};
  std::uint64_t wire_bytes = 0, wire_frames = 0;
  std::uint64_t registry_ops = 0, registry_wait_ns = 0;

  std::uint64_t sum(std::uint64_t HiveSample::* f) const {
    std::uint64_t s = 0;
    for (const HiveSample& h : hive) s += h.*f;
    return s;
  }
};

HiveSample read_hive(Hive& h) {
  HiveSample s;
  s.cpu_ns = thread_cpu_ns();
  s.wall_ns = now_ns();
  const Hive::Counters& c = h.counters();
  s.routed_local = c.routed_local;
  s.routed_remote = c.routed_remote;
  s.handler_runs = c.handler_runs;
  s.handler_failures = c.handler_failures;
  s.registry_failures = c.registry_failures;
  s.shed = c.shed_total;
  s.migration_aborts = c.migration_aborts;
  s.migrations = c.migrations_in;
  s.client_hits = h.registry_client().cache_hits();
  s.client_misses = h.registry_client().cache_misses();
  return s;
}

/// Latency of the requests a phase sends while measuring, by the window
/// each was sent in and in total. Fixed-size: built (and its memory
/// written) before the first cluster, so it neither allocates while
/// measuring nor grows with the request rate.
struct LatencyHistograms {
  explicit LatencyHistograms(std::size_t windows) : window(windows) {}
  std::vector<Histogram> window;
  Histogram total;
};

struct PhaseSpec {
  std::size_t clients = kThroughputClients;
  double warmup_s = 1.0;
  double measure_s = 5.0;
  std::size_t windows = 1;  ///< equal sub-windows of the measured part
  /// Where latency is recorded (at most `windows` windows); none if null.
  LatencyHistograms* latency = nullptr;
  bool traced = false;
  bool keep_traces = false;  ///< store RequestTraces (latency phase)
  bool sample = false;       ///< take a cluster sample at each window edge
};

struct PhaseStats {
  double measured_rps = 0.0;  ///< replies per second while measuring
  std::vector<double> window_rps;
  std::uint64_t issued = 0, wrong = 0, unanswered = 0, unexpected = 0;
  std::uint64_t completed_measured = 0;
  std::int64_t post_ns_sum = 0;
  std::uint64_t posts = 0;
  std::uint64_t allocs = 0;  ///< process-wide, measured part
  /// With PhaseSpec::sample: windows + 1 samples, at the measured part's
  /// start, each window boundary and its end.
  std::vector<std::unique_ptr<Sample>> samples;
};

class Bench {
 public:
  Bench(Kind kind, std::uint64_t seed) : kind_(kind), rng_(seed) {
    if (kind_ == Kind::kLsw) {
      app_ = &apps_.emplace<LearningSwitchApp>();
      lsw_ = std::make_unique<LswOracle>(kSwitches, kMaxClients);
      for (std::uint32_t s = 0; s < kSwitches; ++s) {
        for (std::uint32_t h = 0; h < kHostsPerSwitch; ++h) {
          host_port_[s][h] = static_cast<std::uint16_t>(1 + h % kPorts);
        }
      }
    } else {
      app_ = &apps_.emplace<HostLocationApp>(kBuckets);
      dir_ = std::make_unique<DirectoryOracle>(kHosts);
      bucket_of_.resize(kHosts);
      for (std::uint32_t h = 0; h < kHosts; ++h) {
        const std::string key =
            HostLocationApp::bucket_key(seattle_mac(h), kBuckets);
        std::from_chars(key.data(), key.data() + key.size(), bucket_of_[h]);
      }
    }
    sink_ = &apps_.emplace<SinkApp>(&sinks_);
    ThreadClusterConfig config;
    config.n_hives = kHives;
    config.seed = seed;
    config.hive.pin_cpu = 0;  // see kGeneratorCpu
    cluster_ = std::make_unique<ThreadCluster>(config, apps_);
    // Placement: switch s on hive s mod 2, bucket b on hive b mod 2, sink
    // cell h on hive h. Every other cell is created where it is first used.
    const AppId app = app_->id();
    const AppId sink = sink_->id();
    cluster_->registry().set_placement_hook(
        [app, sink](AppId a, const CellSet& cells, HiveId requester) {
          if (cells.size() != 1 || (a != app && a != sink)) return requester;
          const std::string& key = cells.front().key;
          std::uint32_t n = 0;
          if (std::from_chars(key.data(), key.data() + key.size(), n).ec !=
              std::errc{}) {
            return requester;
          }
          return static_cast<HiveId>(n % kHives);
        });
  }

  ~Bench() { stop(); }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Starts the hives and primes: every switch learns its 64 hosts, or
  /// every host is registered and looked up once. Creates every bee,
  /// including the sinks. Returns false if a priming reply was wrong.
  bool start_and_prime() {
    cluster_->start();
    std::vector<Spec> specs;
    if (kind_ == Kind::kLsw) {
      for (std::uint32_t h = 0; h < kHostsPerSwitch; ++h) {
        for (std::uint32_t s = 0; s < kSwitches; ++s) {
          Spec sp;
          sp.sw = s;
          sp.src = lsw_mac(s, h);
          sp.dst = lsw_mac(s, (h + 1) % kHostsPerSwitch);
          sp.port = host_port_[s][h];
          specs.push_back(sp);
        }
      }
    } else {
      for (std::uint32_t h = 0; h < kHosts; ++h) {
        Spec sp;
        sp.host = h;
        sp.move = true;
        sp.sw = h % 64;
        sp.port = static_cast<std::uint16_t>(1 + (h / 64) % kPorts);
        specs.push_back(sp);
      }
    }
    prime_ = std::move(specs);
    prime_next_ = 0;
    PhaseSpec ps;
    ps.clients = kMaxClients;
    ps.warmup_s = 0.0;
    ps.measure_s = 60.0;  // bounded by the priming list, not the clock
    PhaseStats st;
    run_phase(ps, st);
    const bool ok = st.wrong == 0 && st.unanswered == 0 &&
                    st.unexpected == 0 && prime_next_ == prime_.size();
    prime_.clear();
    return ok;
  }

  void stop() {
    if (cluster_) cluster_->stop();
  }

  /// One closed-loop phase: `clients` requests outstanding, a warm-up, the
  /// measured part, then a drain in which no new requests are sent.
  void run_phase(const PhaseSpec& ps, PhaseStats& st) {
    traced_ = ps.traced;
    keep_traces_ = ps.keep_traces;
    const std::int64_t t0 = now_ns();
    const std::int64_t m0 = t0 + static_cast<std::int64_t>(ps.warmup_s * 1e9);
    const std::int64_t m1 = m0 + static_cast<std::int64_t>(ps.measure_s * 1e9);
    const std::size_t windows = std::max<std::size_t>(1, ps.windows);
    const double window_ns =
        static_cast<double>(m1 - m0) / static_cast<double>(windows);
    auto window_of = [&](std::int64_t t) {
      return std::min(windows - 1, static_cast<std::size_t>(
                                       static_cast<double>(t - m0) / window_ns));
    };
    std::vector<std::uint64_t> window_count(windows, 0);
    if (ps.latency != nullptr && ps.latency->window.size() < windows) {
      throw std::logic_error("latency histograms have too few windows");
    }
    if (ps.sample) st.samples.reserve(windows + 1);

    std::size_t outstanding = 0;
    for (std::size_t s = 0; s < ps.clients; ++s) {
      if (!issue(s, st)) break;
      ++outstanding;
    }
    bool measuring = false;
    bool issuing = true;
    std::uint64_t alloc0 = 0;
    const std::int64_t drain_deadline_extra =
        static_cast<std::int64_t>(kDrainTimeoutS * 1e9);
    std::int64_t drain_deadline = 0;
    Completion c;
    while (outstanding > 0) {
      const std::int64_t t = now_ns();
      if (!measuring && issuing && t >= m0) {
        measuring = true;
        alloc0 = allocations();
        if (ps.sample) st.samples.push_back(take_sample());
      }
      if (issuing && (t >= m1 || exhausted())) {
        issuing = false;
        st.allocs = allocations() - alloc0;
        drain_deadline = t + drain_deadline_extra;
      }
      // One sample per window edge crossed, the last at the end.
      while (ps.sample && measuring && st.samples.size() <= windows &&
             (!issuing || t >= m0 + static_cast<std::int64_t>(
                                       window_ns * static_cast<double>(
                                                       st.samples.size())))) {
        st.samples.push_back(take_sample());
      }
      if (!issuing && t >= drain_deadline) break;
      bool got = false;
      for (HiveId h = 0; h < kHives; ++h) {
        while (sinks_.rings[h].pop(c)) {
          got = true;
          const std::size_t slot = complete(h, c, st);
          if (slot == kNoSlot) continue;
          --outstanding;
          const Slot& sl = slots_[slot];
          if (c.at_ns >= m0 && c.at_ns < m1) {
            ++st.completed_measured;
            ++window_count[window_of(c.at_ns)];
          }
          if (ps.latency != nullptr && sl.sent_ns >= m0 && sl.sent_ns < m1) {
            ps.latency->window[window_of(sl.sent_ns)].add(c.at_ns - sl.sent_ns);
            ps.latency->total.add(c.at_ns - sl.sent_ns);
          }
          if (issuing && issue(slot, st)) ++outstanding;
        }
      }
      if (!got) cpu_relax();
    }
    st.unanswered = outstanding;
    for (Slot& s : slots_) s.busy = false;
    while (ps.sample && st.samples.size() <= windows) {
      st.samples.push_back(take_sample());
    }
    for (const std::unique_ptr<Sample>& s : st.samples) wait_sample(*s);
    for (std::uint64_t n : window_count) {
      st.window_rps.push_back(static_cast<double>(n) / (window_ns * 1e-9));
    }
    st.measured_rps = static_cast<double>(st.completed_measured) /
                      (static_cast<double>(m1 - m0) * 1e-9);
  }

  /// Reserves the traced run's request buffer, touching every page so
  /// measured phases neither allocate nor fault it in.
  void reserve_traces() {
    traces_.assign(kMaxTracedRequests, RequestTrace{});
    traces_.clear();
  }

  /// Lifetime platform-side failures on every hive: sheds, handler
  /// failures, dropped resolves and aborted migrations. Call once stopped.
  std::uint64_t platform_failures() {
    std::uint64_t n = 0;
    for (HiveId h = 0; h < kHives; ++h) {
      const HiveSample s = read_hive(cluster_->hive(h));
      n += s.shed + s.handler_failures + s.registry_failures +
           s.migration_aborts;
    }
    return n;
  }

  const std::vector<RequestTrace>& traces() const { return traces_; }
  std::uint64_t sink_overflow() const {
    return sinks_.overflow.load(std::memory_order_relaxed);
  }
  ThreadCluster& cluster() { return *cluster_; }
  const App& app() const { return *app_; }
  Kind kind() const { return kind_; }

  /// Generates the first `n` requests the seed would produce (replays).
  std::vector<Spec> sample_specs(std::uint64_t seed, std::size_t n) {
    std::mt19937_64 saved = rng_;
    rng_.seed(seed);
    std::vector<Spec> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(draw());
    rng_ = saved;
    return out;
  }

  /// The request and reply envelopes one spec produces.
  MessageEnvelope request_envelope(const Spec& sp, std::uint64_t qid) const {
    if (kind_ == Kind::kLsw) {
      return MessageEnvelope::make(PacketIn{sp.sw, sp.src, sp.dst, sp.port});
    }
    return MessageEnvelope::make(HostLookup{seattle_mac(sp.host), qid});
  }
  std::uint32_t bucket_of(std::uint32_t host) const {
    return bucket_of_.at(host);
  }

 private:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  bool exhausted() const {
    return !prime_.empty() && prime_next_ >= prime_.size();
  }

  Spec draw() {
    Spec sp;
    if (kind_ == Kind::kLsw) {
      sp.sw = static_cast<std::uint32_t>(rng_() % kSwitches);
      const auto src = static_cast<std::uint32_t>(rng_() % kHostsPerSwitch);
      auto dst = static_cast<std::uint32_t>(rng_() % (kHostsPerSwitch - 1));
      if (dst >= src) ++dst;
      sp.src = lsw_mac(sp.sw, src);
      // 1 in 16 packets is for a host the switch has never seen (flood).
      sp.dst = rng_() % 16 == 0 ? 0x060000000000ull | (rng_() & 0xffffff)
                                : lsw_mac(sp.sw, dst);
      // 1 in 32 packets shows its sender on a new port (the host moved).
      std::uint16_t& port = host_port_[sp.sw][src];
      if (rng_() % 32 == 0) {
        port = static_cast<std::uint16_t>(1 + (port + rng_() % (kPorts - 1)) %
                                                  kPorts);
      }
      sp.port = port;
    } else {
      sp.host = static_cast<std::uint32_t>(rng_() % kHosts);
      sp.move = rng_() % 10 == 0;  // 10% moves, 90% lookups
      sp.sw = static_cast<std::uint32_t>(rng_() % 64);
      sp.port = static_cast<std::uint16_t>(1 + rng_() % kPorts);
    }
    return sp;
  }

  bool next_spec(Spec* sp) {
    if (!prime_.empty()) {
      if (prime_next_ >= prime_.size()) return false;
      *sp = prime_[prime_next_++];
      return true;
    }
    *sp = draw();
    return true;
  }

  /// Sends the next request for client `slot`. False when the priming list
  /// is exhausted.
  bool issue(std::size_t slot, PhaseStats& st) {
    Slot& sl = slots_[slot];
    Spec sp;
    if (!next_spec(&sp)) return false;
    sl.busy = true;
    ++sl.gen;
    sl.seq = next_seq_++;
    sl.sent_ns = now_ns();
    HiveId hive = 0;
    MessageEnvelope first;
    MessageEnvelope second;
    if (kind_ == Kind::kLsw) {
      std::uint16_t want = 0;
      if (!lsw_->sent(static_cast<std::uint32_t>(slot), sp.sw, sp.src,
                      sp.port, sp.dst, &want)) {
        throw std::logic_error("switch has more requests pending than clients");
      }
      hive = lsw_master(sp.sw);
      first = request_envelope(sp, 0);
    } else {
      const HiveId bucket_hive = bucket_of_[sp.host] % kHives;
      hive = (bucket_hive + 1) % kHives;  // every request enters the other
      sl.mac = seattle_mac(sp.host);
      const std::uint64_t qid = query_id(sl.gen, slot, hive);
      if (sp.move) {
        dir_->moved(sp.host, {sp.sw, sp.port});
        first = MessageEnvelope::make(HostRegister{sl.mac, sp.sw, sp.port});
        second = request_envelope(sp, qid);
      } else {
        first = request_envelope(sp, qid);
      }
      sl.want = dir_->expected(sp.host);
    }
    ++st.issued;
    Hive* target = &cluster_->hive(hive);
    if (traced_) {
      sl.post_ns = now_ns();
      cluster_->post(hive, [target, &sl, a = std::move(first),
                            b = std::move(second)]() mutable {
        sl.start_ns = now_ns();
        target->inject(std::move(a));
        if (b.has_body()) target->inject(std::move(b));
        sl.injected_ns = now_ns();
      });
      st.post_ns_sum += now_ns() - sl.post_ns;
      ++st.posts;
    } else {
      cluster_->post(hive, [target, a = std::move(first),
                            b = std::move(second)]() mutable {
        target->inject(std::move(a));
        if (b.has_body()) target->inject(std::move(b));
      });
    }
    return true;
  }

  /// Checks one reply against the model; returns the client slot it
  /// completes, or kNoSlot for a reply no client is waiting for.
  std::size_t complete(HiveId hive, const Completion& c, PhaseStats& st) {
    std::size_t slot = kNoSlot;
    bool ok = false;
    if (kind_ == Kind::kLsw) {
      const auto ans = lsw_->answered(c.sw, c.mac, c.port);
      if (ans) {
        slot = ans->slot;
        ok = ans->ok && lsw_master(c.sw) == hive;
      }
    } else {
      const std::size_t s = query_slot(c.id);
      if (s < kMaxClients && slots_[s].busy &&
          query_gen(c.id) == (slots_[s].gen & (~std::uint64_t{0} >> 9)) &&
          query_hive(c.id) == hive) {
        slot = s;
        ok = c.mac == slots_[s].mac &&
             DirectoryOracle::matches(slots_[s].want, c.found, c.sw, c.port);
      }
    }
    if (slot == kNoSlot || !slots_[slot].busy) {
      ++st.unexpected;
      return kNoSlot;
    }
    if (!ok) ++st.wrong;
    Slot& sl = slots_[slot];
    sl.busy = false;
    if (traced_ && keep_traces_ && traces_.size() < traces_.capacity()) {
      traces_.push_back({sl.seq, hive, sl.sent_ns, sl.post_ns, sl.start_ns,
                         sl.injected_ns, c.at_ns});
    }
    return slot;
  }

  std::unique_ptr<Sample> take_sample() {
    auto s = std::make_unique<Sample>();
    for (HiveId h = 0; h < kHives; ++h) {
      Sample* out = s.get();
      Hive* hive = &cluster_->hive(h);
      cluster_->post(h, [out, hive, h] {
        out->hive[h] = read_hive(*hive);
        out->ready[h].store(true, std::memory_order_release);
      });
    }
    s->wire_bytes = cluster_->meter().total_bytes();
    s->wire_frames = cluster_->meter().total_messages();
    RegistryService& reg = cluster_->registry();
    for (std::size_t i = 0; i < reg.shard_count(); ++i) {
      const RegistryShardStats rs = reg.shard_stats(i);
      s->registry_ops += rs.ops;
      s->registry_wait_ns += rs.lock_wait_ns;
    }
    return s;
  }

  static void wait_sample(const Sample& s) {
    const std::int64_t deadline = now_ns() + 5'000'000'000;
    for (HiveId h = 0; h < kHives; ++h) {
      while (!s.ready[h].load(std::memory_order_acquire)) {
        if (now_ns() > deadline) {
          throw std::runtime_error("hive did not run the sampling task");
        }
        std::this_thread::yield();
      }
    }
  }

  Kind kind_;
  std::mt19937_64 rng_;
  Sinks sinks_;
  AppSet apps_;
  App* app_ = nullptr;
  App* sink_ = nullptr;
  std::unique_ptr<ThreadCluster> cluster_;
  std::unique_ptr<LswOracle> lsw_;
  std::unique_ptr<DirectoryOracle> dir_;
  std::array<std::array<std::uint16_t, kHostsPerSwitch>, kSwitches>
      host_port_{};
  std::vector<std::uint32_t> bucket_of_;
  std::array<Slot, kMaxClients> slots_{};
  std::vector<Spec> prime_;
  std::size_t prime_next_ = 0;
  std::uint64_t next_seq_ = 0;
  bool traced_ = false;
  bool keep_traces_ = false;
  std::vector<RequestTrace> traces_;
};

// ---------------------------------------------------------------------------
// Reporting helpers
// ---------------------------------------------------------------------------

double us(std::int64_t ns) { return static_cast<double>(ns) / 1000.0; }

void account(Result& result, const PhaseStats& st) {
  result.count(st.issued, st.wrong + st.unanswered + st.unexpected);
  if (st.wrong > 0) {
    result.fail(std::to_string(st.wrong) + " wrong answers");
  }
  if (st.unanswered > 0) {
    result.fail(std::to_string(st.unanswered) + " requests unanswered");
  }
  if (st.unexpected > 0) {
    result.fail(std::to_string(st.unexpected) + " replies nobody asked for");
  }
}

void print_latency(const char* label, const Histogram& h) {
  const Summary s = h.summary();
  std::printf(
      "%s: n=%zu p50=%.1fus p90=%.1fus p99=%.1fus (%zu samples above p99) "
      "p%g=%.1fus\n",
      label, s.count, s.p50 / 1000.0, s.p90 / 1000.0, s.p99 / 1000.0,
      s.beyond_p99, s.top_q * 100.0, s.top / 1000.0);
}

/// Span durations and self times of the traced latency phase.
struct SpanTable {
  std::vector<std::int64_t> req, req_self, runq, inject, reply;
};

SpanTable span_table(const std::vector<RequestTrace>& traces) {
  SpanTable t;
  for (const RequestTrace& r : traces) {
    const std::int64_t req = r.sink - r.sent;
    const std::int64_t runq = r.start - r.post;
    const std::int64_t inject = r.injected - r.start;
    const std::int64_t reply = r.sink - r.injected;
    t.req.push_back(req);
    t.req_self.push_back(req - runq - inject - reply);
    t.runq.push_back(runq);
    t.inject.push_back(inject);
    t.reply.push_back(reply);
  }
  return t;
}

/// Writes the first kSpansWritten requests' spans as Chrome trace-event
/// JSON (Perfetto-loadable). `req` spans sit on the generator's track,
/// the others on the hive that ran them; args.req links one request's
/// spans.
void write_spans(const std::string& path,
                 const std::vector<RequestTrace>& traces) {
  if (path.empty() || traces.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write spans to %s\n", path.c_str());
    return;
  }
  const std::int64_t base = traces.front().sent;
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  auto span = [&](const char* name, int tid, std::uint64_t id,
                  std::int64_t from, std::int64_t to) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"req\": %llu}}",
                 first ? "" : ",\n", name, tid, us(from - base),
                 us(to - from), static_cast<unsigned long long>(id));
    first = false;
  };
  const std::size_t n = std::min(traces.size(), kSpansWritten);
  for (std::size_t i = 0; i < n; ++i) {
    const RequestTrace& r = traces[i];
    const int hive_tid = static_cast<int>(r.hive) + 1;
    span("req", 0, r.id, r.sent, r.sink);
    span("runq", hive_tid, r.id, r.post, r.start);
    span("inject", hive_tid, r.id, r.start, r.injected);
    span("reply", hive_tid, r.id, r.injected, r.sink);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  std::printf("spans: %zu requests written to %s\n", n, path.c_str());
}

// ---------------------------------------------------------------------------
// Replays over the workload's own inputs
// ---------------------------------------------------------------------------

/// Reads every bee's cells of `dict` on the stopped cluster.
std::vector<CellValue> live_cells(ThreadCluster& cluster,
                                  std::string_view dict) {
  std::vector<CellValue> out;
  for (HiveId h = 0; h < cluster.n_hives(); ++h) {
    for (Bee* bee : cluster.hive(h).local_bees()) {
      const Dict* d = bee->store().find_dict(dict);
      if (d == nullptr) continue;
      d->for_each([&](const std::string& key, const Bytes& value) {
        out.push_back({key, value});
      });
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CellValue& a, const CellValue& b) { return a.key < b.key; });
  return out;
}

LayerCosts replay(Bench& bench, std::uint64_t seed) {
  ReplayInputs in;
  in.app = &bench.app();
  const bool lsw = bench.kind() == Kind::kLsw;
  in.dict = std::string(lsw ? LearningSwitchApp::kDict
                            : HostLocationApp::kDict);
  in.cells = live_cells(bench.cluster(), in.dict);
  const std::vector<Spec> specs = bench.sample_specs(seed, 4096);
  std::uint64_t qid = 0;
  for (const Spec& sp : specs) {
    if (lsw) {
      in.requests.push_back(bench.request_envelope(sp, 0));
      in.wire.push_back(in.requests.back());
      in.wire.push_back(MessageEnvelope::make(
          PacketOut{sp.sw, sp.dst, static_cast<std::uint16_t>(sp.port)}));
      continue;
    }
    const std::uint64_t mac = seattle_mac(sp.host);
    if (sp.move) {
      in.requests.push_back(
          MessageEnvelope::make(HostRegister{mac, sp.sw, sp.port}));
      in.wire.push_back(in.requests.back());
    }
    in.requests.push_back(bench.request_envelope(sp, ++qid));
    in.wire.push_back(in.requests.back());
    in.wire.push_back(MessageEnvelope::make(
        HostLocation{qid, mac, true, sp.sw, sp.port}));
  }
  LayerCosts costs = replay_layers(in);
  if (lsw) {
    replay_txn<MacTable>(in, costs);
  } else {
    replay_txn<HostBucket>(in, costs);
  }
  return costs;
}

/// The sink handler's cost, for the ledger (it runs once per request).
ReplayCost replay_sink(Kind kind) {
  auto sinks = std::make_unique<Sinks>();  // a scratch sink: fills, then counts
  SinkApp sink(sinks.get());
  ReplayInputs in;
  in.app = &sink;
  in.dict = std::string(SinkApp::kDict);
  for (HiveId h = 0; h < kHives; ++h) {
    in.cells.push_back({std::to_string(h), Bytes{}});
  }
  for (std::uint32_t i = 0; i < 64; ++i) {
    in.requests.push_back(
        kind == Kind::kLsw
            ? MessageEnvelope::make(PacketOut{i, lsw_mac(i, 1), 3})
            : MessageEnvelope::make(HostLocation{query_id(1, i, i % 2),
                                                 seattle_mac(i), true, 1, 3}));
  }
  return replay_layers(in).handler;
}

// ---------------------------------------------------------------------------
// The two invocations
// ---------------------------------------------------------------------------

/// Builds, starts and primes `setups` clusters one after another, adding
/// each one's time to `times`; returns the last (kept for measuring).
std::unique_ptr<Bench> set_up(Kind kind, std::uint64_t seed, int setups,
                              std::vector<double>* times, Result& result) {
  std::unique_ptr<Bench> bench;
  for (int i = 0; i < setups; ++i) {
    bench.reset();
    const std::int64_t t0 = now_ns();
    bench = std::make_unique<Bench>(kind, seed);
    if (!bench->start_and_prime()) {
      result.fail("priming replies were wrong or missing");
    }
    times->push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return bench;
}

/// Folds the platform's own failure counters and the sink's overflow into
/// the result, once the cluster is stopped.
void account_platform(Bench& bench, Result& result) {
  const std::uint64_t platform = bench.platform_failures();
  if (platform > 0) {
    result.count(0, platform);
    result.fail(std::to_string(platform) +
                " platform failures (shed, handler, registry or migration "
                "abort)");
  }
  if (bench.sink_overflow() > 0) result.fail("sink ring overflowed");
}

/// Hive-thread CPU per handled message (ns) between two samples: the
/// platform's cost per message, whether or not the hives are saturated.
double cpu_ns_per_msg(const Sample& a, const Sample& b) {
  double cpu = 0.0;
  for (HiveId h = 0; h < kHives; ++h) {
    cpu += static_cast<double>(b.hive[h].cpu_ns - a.hive[h].cpu_ns);
  }
  const std::uint64_t msgs = b.sum(&HiveSample::handler_runs) -
                             a.sum(&HiveSample::handler_runs);
  return msgs == 0 ? 0.0 : cpu / static_cast<double>(msgs);
}

// A run measures several independent clusters. Each cluster keeps one
// throughput level for its lifetime (five consecutive lsw_local clusters in
// one process measured 457k to 702k req/s), so the median over all their
// windows varies far less between runs than any one cluster does. A fresh
// cluster reaches its level within its first 0.2 s window, so the warm-ups
// are short and the run's time goes to more clusters.
constexpr int kClusters = 10;
constexpr int kSetupsPerCluster = 3;
constexpr double kWindowS = 0.5;

void end_to_end(Kind kind, const Options& opt, Result& result) {
  // Measured seconds of each phase on each cluster.
  const double share = opt.seconds / (2.0 * kClusters);
  const auto windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(share / kWindowS));
  LatencyHistograms latency(windows);
  std::vector<double> setups, rps, cpu, p50, p90;
  std::printf("throughput windows (req/s):");
  for (int k = 0; k < kClusters; ++k) {
    std::unique_ptr<Bench> bench =
        set_up(kind, opt.seed * kClusters + static_cast<std::uint64_t>(k),
               kSetupsPerCluster, &setups, result);
    // Each phase is one continuous closed loop. Its start is discarded (a
    // fresh loop starts off its steady state); the rest is cut into
    // kWindowS windows.
    PhaseSpec tput;
    tput.clients = kThroughputClients;
    tput.warmup_s = 0.5;
    tput.measure_s = share;
    tput.windows = windows;
    tput.sample = true;
    PhaseStats t;
    bench->run_phase(tput, t);
    account(result, t);
    rps.insert(rps.end(), t.window_rps.begin(), t.window_rps.end());
    for (std::size_t w = 0; w < windows; ++w) {
      cpu.push_back(cpu_ns_per_msg(*t.samples[w], *t.samples[w + 1]));
    }
    std::printf(" [");
    for (double v : t.window_rps) std::printf(" %.0f", v);
    std::printf(" ]");

    PhaseSpec lat;
    lat.clients = kLatencyClients;
    lat.warmup_s = 0.25;
    lat.measure_s = share;
    lat.windows = windows;
    lat.latency = &latency;
    for (Histogram& h : latency.window) h.clear();
    PhaseStats l;
    bench->run_phase(lat, l);
    account(result, l);
    for (const Histogram& h : latency.window) {
      if (h.count() == 0) continue;
      p50.push_back(h.quantile(0.50) / 1000.0);
      p90.push_back(h.quantile(0.90) / 1000.0);
    }
    bench->stop();
    account_platform(*bench, result);
  }
  if (p50.empty()) result.fail("no latency samples");
  std::printf("\nhive CPU per message, windows (ns):");
  for (double v : cpu) std::printf(" %.0f", v);
  std::printf("\nlatency windows p50/p90 (us):");
  for (std::size_t i = 0; i < p50.size(); ++i) {
    std::printf(" %.1f/%.1f", p50[i], p90[i]);
  }
  std::printf("\nlatency p90 (us, median of windows; not gated): %.3f\n",
              median(p90));
  print_latency("latency (4 clients)", latency.total);
  std::printf("requests_per_s (median of windows; not gated): %.0f\n",
              median(rps));
  result.set("latency_p50_us", median(p50));
  result.set("cpu_ns_per_msg", median(cpu));
  result.set("setup_s", median(setups));
  result.set("rss_mb", peak_rss_mb());
}

void per_layer(Kind kind, const Options& opt, Result& result) {
  std::vector<double> setups;
  std::unique_ptr<Bench> bench = set_up(kind, opt.seed, 1, &setups, result);
  const double quarter = opt.seconds / 4.0;
  bench->reserve_traces();
  LatencyHistograms latency(1);

  // Untraced and traced throughput alternate in short slices on the same
  // cluster, so both see its throughput level (which moves by a third
  // within seconds on seattle_remote): the ratio of their median rates is
  // the tracing overhead.
  constexpr int kOverheadPairs = 4;
  std::vector<double> plain_rps, traced_rps;
  for (int i = 0; i < 2 * kOverheadPairs; ++i) {
    PhaseSpec slice;
    slice.clients = kThroughputClients;
    slice.warmup_s = 0.25;
    slice.measure_s = quarter / kOverheadPairs;
    slice.traced = i % 2 == 1;
    PhaseStats st;
    bench->run_phase(slice, st);
    account(result, st);
    (slice.traced ? traced_rps : plain_rps).push_back(st.measured_rps);
  }
  const double plain = median(plain_rps);
  const double traced = median(traced_rps);

  // The traced phase the per-layer figures come from.
  PhaseSpec tput;
  tput.clients = kThroughputClients;
  tput.warmup_s = 0.25;
  tput.measure_s = quarter;
  tput.traced = true;
  tput.sample = true;
  PhaseStats t;
  bench->run_phase(tput, t);
  account(result, t);

  PhaseSpec lat;
  lat.clients = kLatencyClients;
  lat.warmup_s = 0.5;
  lat.measure_s = 2 * quarter;
  lat.latency = &latency;
  lat.traced = true;
  lat.keep_traces = true;
  PhaseStats l;
  bench->run_phase(lat, l);
  account(result, l);

  std::uint64_t overflowed = 0;
  for (HiveId h = 0; h < kHives; ++h) {
    overflowed += bench->cluster().queue_stats(h).overflowed;
  }
  bench->stop();
  account_platform(*bench, result);
  print_latency("latency (4 clients, traced)", latency.total);

  // -- Run-queue hop and dispatch spans (latency phase) ---------------------
  SpanTable spans = span_table(bench->traces());
  std::printf("spans of the 4-client phase (us):\n");
  auto row = [](const char* name, std::vector<std::int64_t> v) {
    const Summary s = summarize(v);
    std::printf("  %-9s n=%zu p50=%.2f p90=%.2f p99=%.2f\n", name, s.count,
                s.p50 / 1000.0, s.p90 / 1000.0, s.p99 / 1000.0);
    return s;
  };
  row("req", spans.req);
  row("req.self", spans.req_self);
  const Summary runq = row("runq", spans.runq);
  const Summary inject = row("inject", spans.inject);
  const Summary reply = row("reply", spans.reply);
  write_spans(opt.spans_path, bench->traces());

  // -- Hive CPU over the traced throughput phase ---------------------------
  const Sample& a = *t.samples.front();
  const Sample& b = *t.samples.back();
  double busy = 0.0;
  double cpu_per_s = 0.0;
  for (HiveId h = 0; h < kHives; ++h) {
    const double cpu = static_cast<double>(b.hive[h].cpu_ns - a.hive[h].cpu_ns);
    const double wall =
        static_cast<double>(b.hive[h].wall_ns - a.hive[h].wall_ns);
    std::printf("hive %u busy %.3f\n", h, cpu / wall);
    busy += cpu / wall / kHives;
    cpu_per_s += cpu / wall;
  }
  const double reqs = static_cast<double>(t.completed_measured);
  const double cpu_ns_per_req = cpu_per_s * 1e9 / t.measured_rps;
  auto per_req = [&](std::uint64_t HiveSample::* f) {
    return static_cast<double>(b.sum(f) - a.sum(f)) / reqs;
  };
  const double local = per_req(&HiveSample::routed_local);
  const double remote = per_req(&HiveSample::routed_remote);
  const double handlers = per_req(&HiveSample::handler_runs);
  const double hits = per_req(&HiveSample::client_hits);
  const double misses = per_req(&HiveSample::client_misses);
  const double frames = static_cast<double>(b.wire_frames - a.wire_frames);
  const double bytes = static_cast<double>(b.wire_bytes - a.wire_bytes);

  // -- Replays and the ledger ----------------------------------------------
  LayerCosts costs = replay(*bench, opt.seed);
  const ReplayCost sink = replay_sink(kind);
  Ledger ledger;
  ledger.measured_ns_per_req = cpu_ns_per_req;
  // Each message routed is mapped once where it is routed; a remote one is
  // mapped again by the receiving hive to bind its handler.
  ledger.rows.push_back({"apps.map", costs.map.ns_per_op, local + 2 * remote});
  ledger.rows.push_back(
      {"registry.resolve", costs.resolve.ns_per_op, hits + misses});
  ledger.rows.push_back(
      {"apps.handler", costs.handler.ns_per_op, handlers - 1.0});
  ledger.rows.push_back({"sink.handler", sink.ns_per_op, 1.0});
  ledger.rows.push_back({"msg.encode", costs.encode.ns_per_op, remote});
  ledger.rows.push_back({"msg.decode", costs.decode.ns_per_op, remote});
  std::printf("ledger (hive CPU per request, ns): measured %.0f\n",
              ledger.measured_ns_per_req);
  for (const LedgerRow& r : ledger.rows) {
    std::printf("  %-17s %8.1f ns/op x %6.3f /req = %8.1f\n", r.layer.c_str(),
                r.ns_per_op, r.ops_per_req, r.ns_per_req());
  }
  std::printf("  %-17s %42.1f\n", "residual", ledger.residual_ns_per_req());
  std::printf("replay allocs/op: map %.2f handler %.2f txn_rmw %.2f txn_read "
              "%.2f encode %.2f decode %.2f resolve %.2f snapshot %.2f\n",
              costs.map.allocs_per_op, costs.handler.allocs_per_op,
              costs.txn_rmw.allocs_per_op, costs.txn_read.allocs_per_op,
              costs.encode.allocs_per_op, costs.decode.allocs_per_op,
              costs.resolve.allocs_per_op, costs.snapshot.allocs_per_op);

  result.set("requests_per_s", plain);
  result.set("cluster.post_ns", t.posts == 0 ? 0.0
                                             : static_cast<double>(t.post_ns_sum) /
                                                   static_cast<double>(t.posts));
  result.set("cluster.runq_wait_us_p50", runq.p50 / 1000.0);
  result.set("cluster.runq_wait_us_p90", runq.p90 / 1000.0);
  result.set("cluster.runq_overflowed", static_cast<double>(overflowed));
  result.set("cluster.hive_busy_frac", busy);
  result.set("cluster.hive_cpu_ns_per_req", cpu_ns_per_req);
  result.set("core.inject_us_p50", inject.p50 / 1000.0);
  result.set("core.reply_us_p50", reply.p50 / 1000.0);
  result.set("core.local_share", local / (local + remote));
  result.set("apps.map_ns", costs.map.ns_per_op);
  result.set("apps.handler_ns", costs.handler.ns_per_op);
  result.set("state.txn_rmw_ns", costs.txn_rmw.ns_per_op);
  result.set("state.txn_read_ns", costs.txn_read.ns_per_op);
  result.set("state.value_bytes", costs.value_bytes);
  result.set("registry.client_lookups_per_msg", (hits + misses) / handlers);
  result.set("registry.client_hit_rate",
             hits + misses == 0.0 ? 0.0 : hits / (hits + misses));
  result.set("registry.resolve_ns", costs.resolve.ns_per_op);
  result.set("registry.ops", static_cast<double>(b.registry_ops - a.registry_ops));
  result.set("registry.lock_wait_us",
             static_cast<double>(b.registry_wait_ns - a.registry_wait_ns) / 1000.0);
  result.set("msg.encode_ns", costs.encode.ns_per_op);
  result.set("msg.decode_ns", costs.decode.ns_per_op);
  result.set("msg.envelope_bytes", costs.envelope_bytes);
  result.set("channel.frames_per_req", frames / reqs);
  result.set("channel.msgs_per_frame", frames == 0.0 ? 0.0 : remote * reqs / frames);
  result.set("channel.bytes_per_frame", frames == 0.0 ? 0.0 : bytes / frames);
  result.set("channel.wire_bytes_per_req", bytes / reqs);
  result.set("migration.count", static_cast<double>(b.sum(&HiveSample::migrations) -
                                                    a.sum(&HiveSample::migrations)));
  result.set("migration.aborts",
             static_cast<double>(b.sum(&HiveSample::migration_aborts) -
                                 a.sum(&HiveSample::migration_aborts)));
  result.set("migration.snapshot_ns", costs.snapshot.ns_per_op);
  result.set("alloc.per_req", static_cast<double>(t.allocs) / reqs);
  result.set("alloc.per_op.map", costs.map.allocs_per_op);
  result.set("alloc.per_op.handler", costs.handler.allocs_per_op);
  result.set("alloc.per_op.txn_rmw", costs.txn_rmw.allocs_per_op);
  result.set("alloc.per_op.txn_read", costs.txn_read.allocs_per_op);
  result.set("alloc.per_op.encode", costs.encode.allocs_per_op);
  result.set("alloc.per_op.decode", costs.decode.allocs_per_op);
  result.set("alloc.per_op.resolve", costs.resolve.allocs_per_op);
  result.set("alloc.per_op.snapshot", costs.snapshot.allocs_per_op);
  result.set("ledger.residual_ns", ledger.residual_ns_per_req());
  result.set("trace.overhead_pct", (plain - traced) / plain * 100.0);
  std::printf("throughput (median of %d slices each) untraced %.0f req/s, "
              "traced %.0f req/s\n",
              kOverheadPairs, plain, traced);
}

}  // namespace

void run_threaded(const Options& opt, Result& result) {
  pin_to_cpu(kGeneratorCpu);
  const Kind kind = opt.workload == "lsw_local" ? Kind::kLsw : Kind::kSeattle;
  if (opt.trace) {
    per_layer(kind, opt, result);
  } else {
    end_to_end(kind, opt, result);
  }
}

}  // namespace beebench
