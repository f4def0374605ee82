// The Beehive programming abstraction (paper §2).
//
// An application is a named set of handlers over asynchronous messages plus
// state dictionaries. Each handler comes with a Map function that declares
// exactly which cells (dictionary entries) it needs for a given message —
// the `with S[key]` / `with S and T` clauses of the paper's pseudo-code:
//
//   class TrafficEngineering : public App {
//    public:
//     TrafficEngineering() : App("te") {
//       on<SwitchJoined>(
//           [](const SwitchJoined& m) {
//             return CellSet::single("S", switch_key(m.sw));   // with S[sw]
//           },
//           [](AppContext& ctx, const SwitchJoined& m) { ... });
//       every(1 * kSecond,
//             [](const MessageEnvelope&) {
//               return CellSet{{"S", "*"}, {"T", "*"}};        // with S and T
//             },
//             [](AppContext& ctx, const MessageEnvelope&) { ... });
//       every_foreach(1 * kSecond, "S",                         // foreach S
//                     [](AppContext& ctx, const MessageEnvelope&) { ... });
//     }
//   };
//
// From these declarations alone the platform derives the distributed
// deployment: cell ownership, bee placement, collocation and migration.
// Handlers themselves stay centralized-looking: read/write state through
// ctx.state(), communicate by ctx.emit().
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/overload.h"
#include "msg/message.h"
#include "state/cell.h"
#include "util/hash.h"
#include "util/types.h"

namespace beehive {

class AppContext;

using MapFn = std::function<CellSet(const MessageEnvelope&)>;
using HandlerFn = std::function<void(AppContext&, const MessageEnvelope&)>;

/// Synthetic message injected by hives to fire `every*` timers.
struct TimerTick {
  static constexpr std::string_view kTypeName = "platform.timer_tick";
  AppId app = 0;
  std::uint32_t timer_id = 0;

  void encode(ByteWriter& w) const {
    w.u32(app);
    w.u32(timer_id);
  }
  static TimerTick decode(ByteReader& r) {
    TimerTick t;
    t.app = r.u32();
    t.timer_id = r.u32();
    return t;
  }
};

struct HandlerBinding {
  enum class Kind {
    kMapped,        ///< Map() names the cells; platform routes to their bee.
    kForeachLocal,  ///< `every_foreach` timers only: delivered to every
                    ///< local bee owning cells of a dict.
  };

  MsgTypeId msg_type = 0;
  Kind kind = Kind::kMapped;
  MapFn map;                  // kMapped only
  std::string foreach_dict;   // kForeachLocal only
  HandlerFn handle;
};

/// An `every*` timer: each period the hive fires a TimerTick that is
/// dispatched through `binding` like any message of that kind.
struct TimerBinding {
  std::uint32_t id = 0;
  Duration period = kSecond;
  HandlerBinding binding;
};

class App {
 public:
  /// `pinned` anchors this app's bees to the hive that created them: they
  /// never migrate and always win merges (used by IO-facing drivers).
  explicit App(std::string name, bool pinned = false)
      : name_(std::move(name)), id_(fnv1a32(name_)), pinned_(pinned) {
    MsgTypeRegistry::instance().ensure<TimerTick>();
  }
  virtual ~App() = default;

  App(const App&) = delete;
  App& operator=(const App&) = delete;

  const std::string& name() const { return name_; }
  AppId id() const { return id_; }
  bool pinned() const { return pinned_; }

  /// Mailbox bound for this app's bees (DESIGN.md §10). Like `pinned`,
  /// this is deployment configuration: set it at construction time, before
  /// the AppSet is shared across hives — apps keep no mutable state.
  const OverloadConfig& overload() const { return overload_; }
  void set_overload(OverloadConfig config) { overload_ = config; }

  const std::vector<HandlerBinding>& bindings() const { return bindings_; }
  const std::vector<TimerBinding>& timers() const { return timers_; }

  const HandlerBinding* binding_for(MsgTypeId type) const {
    for (const auto& b : bindings_) {
      if (b.msg_type == type) return &b;
    }
    return nullptr;
  }

  const TimerBinding* timer(std::uint32_t id) const {
    return id < timers_.size() ? &timers_[id] : nullptr;
  }

 protected:
  /// `on M with cells(map(M))`: typed mapped handler.
  template <WireEncodable M>
  void on(std::function<CellSet(const M&)> map,
          std::function<void(AppContext&, const M&)> fn) {
    MsgTypeRegistry::instance().ensure<M>();
    HandlerBinding b;
    b.msg_type = msg_type_id<M>();
    b.kind = HandlerBinding::Kind::kMapped;
    b.map = [map = std::move(map)](const MessageEnvelope& env) {
      return map(env.as<M>());
    };
    b.handle = [fn = std::move(fn)](AppContext& ctx,
                                    const MessageEnvelope& env) {
      fn(ctx, env.as<M>());
    };
    bindings_.push_back(std::move(b));
  }

  /// `on TimeOut(period) with cells(map(tick))`: the tick is injected on
  /// the cluster's timer-master hive and routed like any mapped message.
  void every(Duration period, MapFn map, HandlerFn fn) {
    TimerBinding& t = add_timer(period, HandlerBinding::Kind::kMapped);
    t.binding.map = std::move(map);
    t.binding.handle = std::move(fn);
  }

  /// `on TimeOut(period) foreach dict`: every hive fires the tick locally
  /// and delivers it to each local bee owning cells of `dict` — one
  /// invocation per bee per period, cluster-wide (the paper's
  /// "for each switch in S: Query(switch)").
  void every_foreach(Duration period, std::string dict, HandlerFn fn) {
    TimerBinding& t = add_timer(period, HandlerBinding::Kind::kForeachLocal);
    t.binding.foreach_dict = std::move(dict);
    t.binding.handle = std::move(fn);
  }

 private:
  TimerBinding& add_timer(Duration period, HandlerBinding::Kind kind) {
    TimerBinding& t = timers_.emplace_back();
    t.id = static_cast<std::uint32_t>(timers_.size() - 1);
    t.period = period;
    t.binding.msg_type = msg_type_id<TimerTick>();
    t.binding.kind = kind;
    return t;
  }

  std::string name_;
  AppId id_;
  bool pinned_;
  OverloadConfig overload_;
  std::vector<HandlerBinding> bindings_;
  std::vector<TimerBinding> timers_;
};

/// The ensemble of control applications deployed on every hive. One AppSet
/// instance is shared by all hives of a cluster (every controller runs the
/// same program); apps must therefore keep no mutable members — all mutable
/// state belongs in dictionaries.
class AppSet {
 public:
  App& add(std::unique_ptr<App> app);

  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto app = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *app;
    add(std::move(app));
    return ref;
  }

  App* find(AppId id) const;
  App* find_by_name(std::string_view name) const;

  /// Allocation-free subscriber visit for the dispatch hot path: invokes
  /// `fn(App&, const HandlerBinding&)` for each app subscribed to `type`,
  /// in deployment order.
  template <typename Fn>
  void for_each_subscriber(MsgTypeId type, Fn&& fn) const {
    for (const auto& app : apps_) {
      if (const HandlerBinding* b = app->binding_for(type)) {
        fn(*app, *b);
      }
    }
  }

  const std::vector<std::unique_ptr<App>>& apps() const { return apps_; }
  std::size_t size() const { return apps_.size(); }

 private:
  std::vector<std::unique_ptr<App>> apps_;
};

}  // namespace beehive
