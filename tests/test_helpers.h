// Shared fixtures and toy applications for the Beehive test suites.
#pragma once

#include <string>
#include <vector>

#include "core/app.h"
#include "core/context.h"
#include "msg/codec.h"
#include "state/cell.h"

namespace beehive::testing {

// ---------------------------------------------------------------------------
// Toy messages
// ---------------------------------------------------------------------------

/// Increment a named counter.
struct Incr {
  static constexpr std::string_view kTypeName = "test.incr";
  std::string key;
  std::int64_t amount = 1;

  void encode(ByteWriter& w) const {
    w.str(key);
    w.i64(amount);
  }
  static Incr decode(ByteReader& r) {
    Incr m;
    m.key = r.str();
    m.amount = r.i64();
    return m;
  }
};

/// Ask for the value of one counter; answered with CounterValue.
struct CounterQuery {
  static constexpr std::string_view kTypeName = "test.counter_query";
  std::string key;

  void encode(ByteWriter& w) const { w.str(key); }
  static CounterQuery decode(ByteReader& r) { return {r.str()}; }
};

struct CounterValue {
  static constexpr std::string_view kTypeName = "test.counter_value";
  std::string key;
  std::int64_t value = 0;

  void encode(ByteWriter& w) const {
    w.str(key);
    w.i64(value);
  }
  static CounterValue decode(ByteReader& r) {
    CounterValue m;
    m.key = r.str();
    m.value = r.i64();
    return m;
  }
};

/// Touches two counters at once (collocation trigger).
struct PairIncr {
  static constexpr std::string_view kTypeName = "test.pair_incr";
  std::string key_a;
  std::string key_b;

  void encode(ByteWriter& w) const {
    w.str(key_a);
    w.str(key_b);
  }
  static PairIncr decode(ByteReader& r) {
    PairIncr m;
    m.key_a = r.str();
    m.key_b = r.str();
    return m;
  }
};

/// Whole-dictionary read: sums every counter; answered with CounterValue
/// under key "*sum*".
struct SumQuery {
  static constexpr std::string_view kTypeName = "test.sum_query";
  std::uint32_t nonce = 0;

  void encode(ByteWriter& w) const { w.u32(nonce); }
  static SumQuery decode(ByteReader& r) { return {r.u32()}; }
};

/// A message whose handler always throws (transaction-rollback tests).
struct Poison {
  static constexpr std::string_view kTypeName = "test.poison";
  std::string key;

  void encode(ByteWriter& w) const { w.str(key); }
  static Poison decode(ByteReader& r) { return {r.str()}; }
};

/// An int64 cell value.
struct I64 {
  static constexpr std::string_view kTypeName = "test.i64";
  std::int64_t v = 0;

  void encode(ByteWriter& w) const { w.i64(v); }
  static I64 decode(ByteReader& r) { return {r.i64()}; }
};

// ---------------------------------------------------------------------------
// CounterApp: per-key cells, a pair handler forcing collocation, a
// whole-dict handler forcing centralization, and a poison handler that
// writes then throws.
// ---------------------------------------------------------------------------

class CounterApp : public App {
 public:
  static constexpr std::string_view kDict = "cnt";

  CounterApp() : App("test.counter") {
    const std::string dict(kDict);

    on<Incr>(
        [dict](const Incr& m) { return CellSet::single(dict, m.key); },
        [dict](AppContext& ctx, const Incr& m) {
          I64 v = ctx.state().get_as<I64>(dict, m.key).value_or(I64{});
          v.v += m.amount;
          ctx.state().put_as(dict, m.key, v);
        });

    on<CounterQuery>(
        [dict](const CounterQuery& m) {
          return CellSet::single(dict, m.key);
        },
        [dict](AppContext& ctx, const CounterQuery& m) {
          I64 v = ctx.state().get_as<I64>(dict, m.key).value_or(I64{});
          ctx.emit(CounterValue{m.key, v.v});
        });

    on<PairIncr>(
        [dict](const PairIncr& m) {
          return CellSet{{dict, m.key_a}, {dict, m.key_b}};
        },
        [dict](AppContext& ctx, const PairIncr& m) {
          I64 a = ctx.state().get_as<I64>(dict, m.key_a).value_or(I64{});
          a.v += 1;
          ctx.state().put_as(dict, m.key_a, a);
          if (m.key_b == m.key_a) return;  // one increment per key
          I64 b = ctx.state().get_as<I64>(dict, m.key_b).value_or(I64{});
          b.v += 1;
          ctx.state().put_as(dict, m.key_b, b);
        });

    on<SumQuery>(
        [dict](const SumQuery&) { return CellSet::whole_dict(dict); },
        [dict](AppContext& ctx, const SumQuery&) {
          std::int64_t sum = 0;
          ctx.state().for_each<I64>(
              dict, [&sum](const std::string&, const I64& v) { sum += v.v; });
          ctx.emit(CounterValue{"*sum*", sum});
        });

    on<Poison>(
        [dict](const Poison& m) { return CellSet::single(dict, m.key); },
        [dict](AppContext& ctx, const Poison& m) {
          ctx.state().put_as(dict, m.key, I64{9999});
          ctx.emit(CounterValue{"never", -1});
          throw std::runtime_error("poisoned handler");
        });
  }
};

/// Sink that records every CounterValue it sees (maps all to one cell).
class SinkApp : public App {
 public:
  static constexpr std::string_view kDict = "sink";

  SinkApp() : App("test.sink") {
    const std::string dict(kDict);
    on<CounterValue>(
        [dict](const CounterValue&) { return CellSet::whole_dict(dict); },
        [dict](AppContext& ctx, const CounterValue& m) {
          I64 n = ctx.state().get_as<I64>(dict, "n").value_or(I64{});
          n.v += 1;
          ctx.state().put_as(dict, "n", n);
          ctx.state().put_as(dict, "last:" + m.key, I64{m.value});
        });
  }
};

/// Sink that takes every CounterValue on one bee and does nothing with it:
/// the far end of an emitting handler, costing only its dispatch.
class NoopSinkApp : public App {
 public:
  NoopSinkApp() : App("test.noop_sink") {
    on<CounterValue>(
        [](const CounterValue&) { return CellSet::single("noop", "all"); },
        [](AppContext&, const CounterValue&) {});
  }
};

}  // namespace beehive::testing
