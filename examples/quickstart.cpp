// Quickstart: write a Beehive control application in ~30 lines and run it
// distributed over four controllers — without writing any distribution
// code.
//
// The app below is a word-count service. The *only* distribution-relevant
// thing it declares is each handler's Map function: Count needs the cell
// ("words", word); TopWord scans the whole dictionary. From that, the
// platform shards the word cells over the hives that first see each word,
// and automatically centralizes TopWord's bee (whole-dict access — exactly
// the trade-off the paper's Figure 2 Route function makes).
//
// Build & run:  ./build/examples/quickstart
//
// `--serve [seconds]` runs the same app on the threaded runtime instead,
// with the StatusApp on board and the HTTP exposition endpoint live:
//   curl http://127.0.0.1:9780/metrics      # Prometheus text format
//   curl http://127.0.0.1:9780/status.json  # per-hive / per-bee snapshot
//   curl http://127.0.0.1:9780/traces.json  # tail-sampled slowest traces
//
// `--faults` (serve mode) makes the wire lossy (drop/duplicate/reorder),
// arms the reliable transport with a tight credit window and bounds the
// word app's mailbox — so retransmits, credit stalls and sheds actually
// happen and /traces.json + `beectl trace` have tail latency to explain.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>

#include "cluster/sim.h"
#include "cluster/thread_cluster.h"
#include "core/context.h"
#include "instrument/collector.h"
#include "instrument/status_app.h"
#include "net/http_export.h"
#include "placement/strategy.h"

using namespace beehive;

// -- Messages ---------------------------------------------------------------

struct Word {
  static constexpr std::string_view kTypeName = "wc.word";
  std::string word;

  void encode(ByteWriter& w) const { w.str(word); }
  static Word decode(ByteReader& r) { return {r.str()}; }
};

struct TopWordQuery {
  static constexpr std::string_view kTypeName = "wc.top_query";
  std::uint32_t nonce = 0;

  void encode(ByteWriter& w) const { w.u32(nonce); }
  static TopWordQuery decode(ByteReader& r) { return {r.u32()}; }
};

struct Count {
  static constexpr std::string_view kTypeName = "wc.count";
  std::uint64_t n = 0;

  void encode(ByteWriter& w) const { w.varint(n); }
  static Count decode(ByteReader& r) { return {r.varint()}; }
};

// -- The application ----------------------------------------------------------

class WordCountApp : public App {
 public:
  WordCountApp() : App("wordcount") {
    // `on Word with words[word]` — one cell per word.
    on<Word>(
        [](const Word& m) { return CellSet::single("words", m.word); },
        [](AppContext& ctx, const Word& m) {
          Count c =
              ctx.state().get_as<Count>("words", m.word).value_or(Count{});
          c.n += 1;
          ctx.state().put_as("words", m.word, c);
        });

    // `on TopWordQuery with words` — whole dictionary: centralized.
    on<TopWordQuery>(
        [](const TopWordQuery&) { return CellSet::whole_dict("words"); },
        [](AppContext& ctx, const TopWordQuery&) {
          std::string best;
          std::uint64_t best_n = 0;
          ctx.state().for_each(
              "words", [&](const std::string& word, const Bytes& value) {
                std::uint64_t n = decode_from_bytes<Count>(value).n;
                if (n > best_n) {
                  best_n = n;
                  best = word;
                }
              });
          std::printf("[hive %u, %s] top word: '%s' x%llu\n", ctx.hive(),
                      to_string_bee(ctx.self()).c_str(), best.c_str(),
                      static_cast<unsigned long long>(best_n));
        });
  }
};

// -- Serve mode: ThreadCluster + StatusApp + HTTP exposition ----------------

/// Builds /status.json on the status bee's own loop thread (posted task,
/// so it serializes with handlers) and hands the result to the HTTP
/// thread. Falls back to "{}" when the bee isn't up yet or is slow.
std::string status_json_from(ThreadCluster& cluster, AppId status_app) {
  for (const BeeRecord& rec : cluster.registry().live_bees()) {
    if (rec.app != status_app) continue;
    auto promise = std::make_shared<std::promise<std::string>>();
    auto future = promise->get_future();
    const HiveId hive = rec.hive;
    const BeeId bee_id = rec.id;
    cluster.post(hive, [&cluster, hive, bee_id, promise] {
      Bee* bee = cluster.hive(hive).find_bee(bee_id);
      promise->set_value(
          bee == nullptr
              ? std::string("{}\n")
              : StatusApp::report_from_store(bee->store(), cluster.now())
                    .to_json());
    });
    if (future.wait_for(std::chrono::seconds(2)) ==
        std::future_status::ready) {
      return future.get();
    }
    return "{}\n";
  }
  return "{}\n";
}

int serve(Duration run_for, std::uint16_t port, bool faulted) {
  AppSet apps;
  WordCountApp& wc = apps.emplace<WordCountApp>();
  if (faulted) {
    // A small mailbox bound makes overload sheds reachable by the skewed
    // word stream, so shed-terminated traces show up in /traces.json.
    wc.set_overload({.bounded = true,
                     .mailbox_limit = 64,
                     .policy = OverloadPolicy::kShedNewest});
  }
  apps.emplace<StatusApp>();
  // The optimizer rides along as a plain control app: it folds the
  // per-hive reports (now carrying sampled handler cost and queue
  // pressure) and ranks migrations by cost x pressure.
  CollectorConfig collector_config;
  collector_config.optimize_period = 2 * kSecond;
  apps.emplace<CollectorApp>(std::make_shared<CostPressureStrategy>(), 4,
                             collector_config);
  const AppId status_app = apps.find_by_name("platform.status")->id();

  ClusterConfig config;
  config.n_hives = 4;
  config.hive.metrics_period = kSecond / 2;
  // Sample handler thread-CPU cost so /status.json, /health.json and the
  // optimizer all see measured cost instead of raw message counts.
  config.hive.profiler.enabled = true;
  config.hive.profiler.sample_every = 16;
  config.flight_recorder = true;
  // Tail-latency attribution (DESIGN.md §11): spans on, full detail kept
  // only for traces that end slow (>5ms wall), shed or failed — the ones
  // /traces.json and `beectl trace` are for.
  config.tracing = true;
  config.tail.enabled = true;
  config.tail.latency_threshold = 5 * kMillisecond;
  if (faulted) {
    // Reliable transport with a tight window: drops force retransmits,
    // the window forces credit stalls — both then show up as blame.
    config.hive.transport.enabled = true;
    config.hive.transport.credit_window = 4;
  }
  ThreadCluster cluster(config, apps);
  if (faulted) {
    LinkFaults lossy;
    lossy.drop = 0.15;
    lossy.duplicate = 0.05;
    lossy.reorder = 0.05;
    cluster.faults().set_default_link(lossy);
  }
  cluster.start();

  HttpExportServer server(*cluster.metrics(), port);
  server.set_status_source(
      [&cluster, status_app] { return status_json_from(cluster, status_app); });
  server.set_health_source([&cluster] { return cluster.health_json(); });
  server.set_traces_source([&cluster] { return cluster.traces_json(20); });
  if (FlightRecorder* recorder = cluster.flight_recorder()) {
    recorder->set_health_source([&cluster] { return cluster.health_json(); });
  }
  std::printf("serving http://127.0.0.1:%u/metrics, /status.json, "
              "/health.json and /traces.json for %.0f s%s  "
              "(try: beectl top --port %u, beectl trace --port %u)\n",
              server.port(),
              static_cast<double>(run_for) / static_cast<double>(kSecond),
              faulted ? "  [lossy wire + credit window + bounded mailbox]"
                      : "",
              server.port(), server.port());
  std::fflush(stdout);

  // A steady trickle of words keeps the counters, rate rings and the
  // StatusApp's windows moving while scrapers watch. The stream is
  // deliberately skewed ("bee" dominates) so one word cell runs hot and
  // the cost x pressure optimizer has a real signal to act on.
  const char* stream[] = {"bee", "bee", "or", "not", "bee", "bee",
                          "that", "is", "bee", "question", "bee"};
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(run_for);
  std::size_t i = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const HiveId hive = static_cast<HiveId>(i % 4);
    const std::string word = stream[i % (sizeof(stream) / sizeof(*stream))];
    ++i;
    cluster.post(hive, [&cluster, hive, word] {
      cluster.hive(hive).inject(MessageEnvelope::make(
          Word{word}, 0, kNoBee, hive, cluster.now()));
    });
    if (i == 16) {
      // Force the whole-dict query once so the app centralizes and the
      // status view shows the merged bee.
      cluster.post(0, [&cluster] {
        cluster.hive(0).inject(MessageEnvelope::make(TopWordQuery{1}, 0,
                                                     kNoBee, 0,
                                                     cluster.now()));
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  std::printf("served %llu request(s); shutting down\n",
              static_cast<unsigned long long>(server.requests_served()));
  // Detach before tearing the cluster down: late scrapers get a clean 503
  // instead of racing the registry's destruction.
  server.detach();
  server.stop();
  cluster.stop();
  return 0;
}

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") == 0) {
      Duration run_for = 30 * kSecond;
      std::uint16_t port = 9780;
      bool faulted = false;
      if (i + 1 < argc && std::atoi(argv[i + 1]) > 0) {
        run_for = static_cast<Duration>(std::atoi(argv[i + 1])) * kSecond;
      }
      for (int j = 1; j < argc; ++j) {
        if (std::strcmp(argv[j], "--port") == 0 && j + 1 < argc) {
          port = static_cast<std::uint16_t>(std::atoi(argv[j + 1]));
        } else if (std::strcmp(argv[j], "--faults") == 0) {
          faulted = true;
        }
      }
      return serve(run_for, port, faulted);
    }
  }

  AppSet apps;
  apps.emplace<WordCountApp>();

  ClusterConfig config;
  config.n_hives = 4;
  config.hive.metrics_period = 0;
  SimCluster cluster(config, apps);
  cluster.start();

  // Feed words in at different controllers — as if four frontends each
  // received part of the stream.
  const char* stream[] = {"to", "bee", "or", "not", "to", "bee",
                          "that", "is", "the", "question", "bee"};
  std::size_t i = 0;
  for (const char* word : stream) {
    HiveId hive = static_cast<HiveId>(i++ % 4);
    cluster.hive(hive).inject(MessageEnvelope::make(
        Word{word}, 0, kNoBee, hive, cluster.now()));
  }
  cluster.run_to_idle();

  std::printf("%zu live bees before the whole-dict query\n",
              cluster.registry().live_bee_count());

  // The query forces the collocation obligation: every word cell merges
  // onto one bee, which then answers.
  cluster.hive(0).inject(MessageEnvelope::make(TopWordQuery{1}, 0, kNoBee, 0,
                                               cluster.now()));
  cluster.run_to_idle();

  std::printf("%zu live bee(s) after it (the platform centralized the app, "
              "exactly as declared)\n",
              cluster.registry().live_bee_count());
  std::printf("control-channel bytes spent: %llu\n",
              static_cast<unsigned long long>(cluster.meter().total_bytes()));
  return 0;
}
