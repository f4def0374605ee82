// Unit tests for the foundation layers: byte codecs, message envelopes,
// type registry, cells, dictionaries, stores and transactions.
#include <gtest/gtest.h>

#include <limits>

#include "msg/message.h"
#include "msg/registry.h"
#include "state/cell.h"
#include "state/dict.h"
#include "state/store.h"
#include "state/txn.h"
#include "tests/test_helpers.h"
#include "util/bytes.h"
#include "util/hash.h"
#include "util/rng.h"

namespace beehive {
namespace {

using testing::CounterValue;
using testing::I64;
using testing::Incr;

/// Eight bytes read as two u32 halves: the other type a cell holding an
/// I64 is read as.
struct U32Pair {
  static constexpr std::string_view kTypeName = "test.u32_pair";
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;

  void encode(ByteWriter& w) const {
    w.u32(lo);
    w.u32(hi);
  }
  static U32Pair decode(ByteReader& r) {
    U32Pair p;
    p.lo = r.u32();
    p.hi = r.u32();
    return p;
  }
};

/// An I64 that counts its encodes.
struct CountedI64 {
  static constexpr std::string_view kTypeName = "test.counted_i64";
  static inline int encodes = 0;
  std::int64_t v = 0;

  void encode(ByteWriter& w) const {
    ++encodes;
    w.i64(v);
  }
  static CountedI64 decode(ByteReader& r) { return {r.i64()}; }
};

// ---------------------------------------------------------------------------
// Bytes
// ---------------------------------------------------------------------------

TEST(Bytes, FixedWidthRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.25);
  w.boolean(true);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(Bytes, VarintBoundaries) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  std::numeric_limits<std::uint32_t>::max(),
                                  std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.varint(), v) << "value " << v;
    EXPECT_TRUE(r.done());
  }
}

TEST(Bytes, VarintIsCompactForSmallValues) {
  ByteWriter w;
  w.varint(5);
  EXPECT_EQ(w.size(), 1u);
  ByteWriter w2;
  w2.varint(300);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Bytes, StringsWithEmbeddedNulAndUnicode) {
  ByteWriter w;
  w.str(std::string("a\0b", 3));
  w.str("héllo wörld");
  w.str("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), std::string("a\0b", 3));
  EXPECT_EQ(r.str(), "héllo wörld");
  EXPECT_EQ(r.str(), "");
}

TEST(Bytes, UnderrunThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_THROW(r.u8(), DecodeError);
}

TEST(Bytes, MalformedVarintThrows) {
  Bytes ten_continuations(10, static_cast<char>(0xff));
  ByteReader r(ten_continuations);
  EXPECT_THROW(r.varint(), DecodeError);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.varint(100);  // claims 100 bytes follow
  w.raw("short");
  ByteReader r(w.bytes());
  EXPECT_THROW(r.str(), DecodeError);
}

// ---------------------------------------------------------------------------
// Hash / RNG determinism
// ---------------------------------------------------------------------------

TEST(Hash, Fnv1aIsStable) {
  // Known-answer: identifiers must never change across builds.
  EXPECT_EQ(fnv1a32(""), 0x811c9dc5u);
  EXPECT_EQ(fnv1a32("a"), 0xe40c292cu);
  EXPECT_NE(fnv1a32("te.naive"), fnv1a32("te.decoupled"));
}

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextInRespectsBounds) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_in(2.5, 7.5);
    EXPECT_GE(d, 2.5);
    EXPECT_LT(d, 7.5);
  }
}

// ---------------------------------------------------------------------------
// Message envelope & registry
// ---------------------------------------------------------------------------

TEST(Message, TypedAccess) {
  auto env = MessageEnvelope::make(Incr{"k", 5}, 11, 22, 3, 1000);
  EXPECT_TRUE(env.is<Incr>());
  EXPECT_FALSE(env.is<CounterValue>());
  EXPECT_EQ(env.as<Incr>().key, "k");
  EXPECT_EQ(env.as<Incr>().amount, 5);
  EXPECT_EQ(env.from_app(), 11u);
  EXPECT_EQ(env.from_bee(), 22u);
  EXPECT_EQ(env.from_hive(), 3u);
  EXPECT_EQ(env.emitted_at(), 1000);
  EXPECT_THROW(env.as<CounterValue>(), std::logic_error);
}

TEST(Message, WireRoundTrip) {
  auto env = MessageEnvelope::make(Incr{"roundtrip", -9}, 1, 2, 3, 44);
  Bytes wire = env.to_wire();
  MessageEnvelope back = MessageEnvelope::from_wire(wire);
  EXPECT_EQ(back.type(), env.type());
  EXPECT_EQ(back.from_app(), 1u);
  EXPECT_EQ(back.from_bee(), 2u);
  EXPECT_EQ(back.from_hive(), 3u);
  EXPECT_EQ(back.emitted_at(), 44);
  EXPECT_EQ(back.as<Incr>().key, "roundtrip");
  EXPECT_EQ(back.as<Incr>().amount, -9);
}

TEST(Registry, EnsureIsIdempotent) {
  auto& reg = MsgTypeRegistry::instance();
  MsgTypeId id1 = reg.ensure<Incr>();
  MsgTypeId id2 = reg.ensure<Incr>();
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(reg.name_of(id1), "test.incr");
}

TEST(Registry, UnknownTypeHasPlaceholderName) {
  EXPECT_EQ(MsgTypeRegistry::instance().name_of(0xfffffffe), "<unknown>");
}

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

TEST(CellSet, InsertDeduplicatesAndSorts) {
  CellSet s;
  s.insert({"d", "b"});
  s.insert({"d", "a"});
  s.insert({"d", "b"});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].key, "a");
  EXPECT_EQ(s[1].key, "b");
}

TEST(CellSet, IntersectionExactKeys) {
  CellSet a{{"d", "x"}, {"d", "y"}};
  CellSet b{{"d", "y"}, {"d", "z"}};
  CellSet c{{"d", "z"}, {"e", "x"}};
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(b.intersects(c));
}

TEST(CellSet, WholeDictIntersectsEveryKeyOfThatDict) {
  CellSet whole = CellSet::whole_dict("d");
  CellSet key = CellSet::single("d", "k");
  CellSet other_dict = CellSet::single("e", "k");
  EXPECT_TRUE(whole.intersects(key));
  EXPECT_TRUE(key.intersects(whole));
  EXPECT_FALSE(whole.intersects(other_dict));
  EXPECT_TRUE(whole.intersects(whole));
}

TEST(CellSet, EncodeDecodeRoundTrip) {
  CellSet s{{"S", "1"}, {"T", "*"}, {"S", "44"}};
  ByteWriter w;
  s.encode(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(CellSet::decode(r), s);
}

TEST(CellSet, MergeIsUnion) {
  CellSet a{{"d", "1"}};
  CellSet b{{"d", "2"}, {"d", "1"}};
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
}

// ---------------------------------------------------------------------------
// Dict / StateStore
// ---------------------------------------------------------------------------

TEST(Dict, PutGetEraseContains) {
  Dict d("test");
  EXPECT_FALSE(d.contains("k"));
  d.put("k", "v1");
  EXPECT_EQ(d.get("k"), "v1");
  d.put("k", "v2");
  EXPECT_EQ(d.get("k"), "v2");
  EXPECT_TRUE(d.erase("k"));
  EXPECT_FALSE(d.erase("k"));
  EXPECT_EQ(d.get("k"), std::nullopt);
}

TEST(Dict, TypedAccessors) {
  Dict d("test");
  d.put_as("x", I64{42});
  auto v = d.get_as<I64>("x");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->v, 42);
  EXPECT_FALSE(d.get_as<I64>("missing").has_value());

  // Every byte view of a typed entry is its encoding.
  const Bytes encoded = encode_to_bytes(I64{42});
  EXPECT_EQ(d.get("x"), encoded);
  Bytes seen;
  d.for_each([&seen](const std::string&, const Bytes& b) { seen = b; });
  EXPECT_EQ(seen, encoded);
  EXPECT_EQ(d.byte_size(), d.name().size() + 1 + encoded.size());

  // A raw entry decodes.
  d.put("raw", encode_to_bytes(I64{-5}));
  EXPECT_EQ(d.get_as<I64>("raw")->v, -5);

  // Another type reads what decoding the typed entry's bytes gives.
  const I64 both{(std::int64_t{2} << 32) | 1};
  d.put_as("pair", both);
  const auto pair = d.get_as<U32Pair>("pair");
  const U32Pair decoded = decode_from_bytes<U32Pair>(encode_to_bytes(both));
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->lo, decoded.lo);
  EXPECT_EQ(pair->hi, decoded.hi);
  EXPECT_EQ(pair->hi, 2u);
  EXPECT_EQ(d.get_as<I64>("pair")->v, both.v);
}

TEST(Dict, ForEachIsKeyOrdered) {
  Dict d("test");
  d.put("b", "2");
  d.put("a", "1");
  d.put("c", "3");
  std::string order;
  d.for_each([&order](const std::string& k, const Bytes&) { order += k; });
  EXPECT_EQ(order, "abc");
}

TEST(Dict, EncodeDecodeRoundTrip) {
  Dict d("mydict");
  d.put("k1", "value one");
  d.put("k2", std::string("\0\1\2", 3));
  ByteWriter w;
  d.encode(w);
  ByteReader r(w.bytes());
  Dict back = Dict::decode(r);
  EXPECT_EQ(back.name(), "mydict");
  EXPECT_EQ(back.get("k1"), "value one");
  EXPECT_EQ(back.get("k2"), std::string("\0\1\2", 3));
}

TEST(StateStore, SnapshotRoundTrip) {
  StateStore s;
  s.dict("a").put("k", "v");
  s.dict("b").put_as("n", I64{7});
  StateStore restored = StateStore::from_snapshot(s.snapshot());
  EXPECT_EQ(restored.dict("a").get("k"), "v");
  EXPECT_EQ(restored.dict("b").get_as<I64>("n")->v, 7);
  EXPECT_EQ(restored.byte_size(), s.byte_size());

  // A typed entry snapshots exactly as its encoding written raw.
  StateStore raw;
  raw.dict("a").put("k", "v");
  raw.dict("b").put("n", encode_to_bytes(I64{7}));
  EXPECT_EQ(s.snapshot(), raw.snapshot());
  EXPECT_EQ(s.byte_size(), raw.byte_size());
}

TEST(StateStore, MergeFromMovesEverything) {
  StateStore a, b;
  a.dict("d").put("x", "1");
  b.dict("d").put("y", "2");
  b.dict("e").put("z", "3");
  a.dict("d").put_as("both", I64{1});
  b.dict("d").put_as("both", I64{2});
  a.merge_from(std::move(b));
  EXPECT_EQ(a.dict("d").get("x"), "1");
  EXPECT_EQ(a.dict("d").get("y"), "2");
  EXPECT_EQ(a.dict("e").get("z"), "3");
  EXPECT_EQ(a.dict("d").get_as<I64>("both")->v, 2);  // the merged-in entry
}

TEST(StateStore, AllCellsEnumerates) {
  // cell_count() sums the entries of every dictionary; an empty one adds 0.
  StateStore s;
  EXPECT_EQ(s.cell_count(), 0u);
  s.dict("d").put("a", "1");
  s.dict("d").put("b", "2");
  s.dict("e").put("c", "3");
  s.dict("empty");
  EXPECT_EQ(s.dict_count(), 3u);
  EXPECT_EQ(s.cell_count(), 3u);
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

TEST(Txn, CommitMakesWritesVisible) {
  StateStore store;
  {
    Txn txn(store, AccessPolicy::all());
    txn.put("d", "k", "v");
    txn.commit();
  }
  EXPECT_EQ(store.dict("d").get("k"), "v");
}

TEST(Txn, DestructorWithoutCommitRollsBack) {
  StateStore store;
  store.dict("d").put("k", "old");
  {
    Txn txn(store, AccessPolicy::all());
    txn.put("d", "k", "new");
    txn.put("d", "fresh", "x");
    // no commit
  }
  EXPECT_EQ(store.dict("d").get("k"), "old");
  EXPECT_FALSE(store.dict("d").contains("fresh"));
}

TEST(Txn, RollbackRestoresOverwritesInOrder) {
  StateStore store;
  store.dict("d").put("k", "original");
  store.dict("d").put_as("t", I64{1});
  Txn txn(store, AccessPolicy::all());
  txn.put("d", "k", "first");
  txn.put("d", "k", "second");
  txn.put_as("d", "t", I64{2});
  txn.put_as("d", "t", I64{3});
  txn.rollback();
  EXPECT_EQ(store.dict("d").get("k"), "original");
  EXPECT_EQ(store.dict("d").get_as<I64>("t")->v, 1);
}

TEST(Txn, RollbackUndoesErase) {
  StateStore store;
  store.dict("d").put("k", "keepme");
  store.dict("d").put_as("t", I64{11});
  Txn txn(store, AccessPolicy::all());
  EXPECT_TRUE(txn.erase("d", "k"));
  EXPECT_FALSE(txn.contains("d", "k"));
  EXPECT_TRUE(txn.erase("d", "t"));
  txn.rollback();
  EXPECT_EQ(store.dict("d").get("k"), "keepme");
  EXPECT_EQ(store.dict("d").get_as<I64>("t")->v, 11);
}

TEST(Txn, EraseMissingKeyReturnsFalse) {
  StateStore store;
  Txn txn(store, AccessPolicy::all());
  EXPECT_FALSE(txn.erase("d", "nothing"));
  txn.commit();
}

TEST(Txn, PolicyBlocksUnmappedCell) {
  StateStore store;
  Txn txn(store, AccessPolicy::cells(CellSet::single("d", "allowed")));
  txn.put("d", "allowed", "ok");
  EXPECT_THROW(txn.put("d", "forbidden", "x"), StateAccessError);
  EXPECT_THROW(txn.get("e", "allowed"), StateAccessError);
}

TEST(Txn, PolicyWholeDictAllowsScanAndAnyKey) {
  StateStore store;
  store.dict("d").put("a", encode_to_bytes(I64{1}));  // raw: decoded
  Txn txn(store, AccessPolicy::cells(CellSet::whole_dict("d")));
  txn.put_as("d", "anything", I64{2});  // typed: handed over
  int seen = 0;
  std::int64_t sum = 0;
  txn.for_each<I64>("d", [&](const std::string&, const I64& v) {
    ++seen;
    sum += v.v;
  });
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(sum, 3);
  EXPECT_EQ(txn.dict_size("d"), 2u);
  txn.commit();
}

TEST(Txn, ScanWithoutWholeDictThrows) {
  StateStore store;
  Txn txn(store, AccessPolicy::cells(CellSet::single("d", "k")));
  EXPECT_THROW(txn.for_each<I64>("d", [](const std::string&, const I64&) {}),
               StateAccessError);
  EXPECT_THROW(txn.dict_size("d"), StateAccessError);
}

TEST(Txn, TypedScanEncodesNoTypedEntry) {
  StateStore store;
  for (std::int64_t i = 0; i < 100; ++i) {
    store.dict("d").put_as("k" + std::to_string(i), CountedI64{i});
  }
  CountedI64::encodes = 0;
  Txn txn(store, AccessPolicy::cells(CellSet::whole_dict("d")));
  std::int64_t sum = 0;
  txn.for_each<CountedI64>(
      "d", [&sum](const std::string&, const CountedI64& c) { sum += c.v; });
  EXPECT_EQ(sum, 4950);
  EXPECT_EQ(CountedI64::encodes, 0);
  // The bytes scan encodes every typed entry.
  store.dict("d").for_each([](const std::string&, const Bytes&) {});
  EXPECT_EQ(CountedI64::encodes, 100);
}

TEST(Txn, LocalDictPolicyGrantsScanAndKeys) {
  StateStore store;
  store.dict("d").put_as("a", I64{1});
  Txn txn(store, AccessPolicy::local_dict("d"));
  txn.put_as("d", "b", I64{2});
  std::size_t n = 0;
  txn.for_each<I64>("d", [&n](const std::string&, const I64&) { ++n; });
  EXPECT_EQ(n, 2u);
  EXPECT_THROW(txn.put("other", "k", "v"), StateAccessError);
  txn.commit();
}

TEST(Txn, WriteCountTracksUndoLog) {
  StateStore store;
  Txn txn(store, AccessPolicy::all());
  EXPECT_EQ(txn.write_count(), 0u);
  txn.put("d", "a", "1");
  txn.put("d", "b", "2");
  EXPECT_EQ(txn.write_count(), 2u);
  txn.commit();
}

TEST(Txn, RedoRecordsCarryValuesOnlyWhenAsked) {
  for (const bool values : {false, true}) {
    StateStore store;
    store.dict("d").put("gone", "x");
    Txn::Scratch scratch;
    scratch.redo_values = values;
    Txn txn(store, AccessPolicy::all(), &scratch);
    txn.put_as("d", "t", I64{5});
    txn.put("d", "r", "raw");
    txn.erase("d", "gone");
    txn.commit();
    ASSERT_EQ(txn.writes().size(), 3u);
    EXPECT_EQ(txn.writes()[0].value, values ? encode_to_bytes(I64{5}) : "");
    EXPECT_EQ(txn.writes()[1].value, values ? "raw" : "");
    EXPECT_TRUE(txn.writes()[2].erased);
    EXPECT_EQ(txn.writes()[2].value, "");
  }
}

}  // namespace
}  // namespace beehive
