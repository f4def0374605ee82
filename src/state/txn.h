// Transactional state access for handlers.
//
// Every handler invocation runs inside a transaction (paper §2:
// "dictionaries … with support for transactions"). The transaction
//   (a) enforces the handler's declared cell access — a handler may only
//       touch the cells its Map function returned (or the whole dictionary
//       when it mapped (D, "*")), which is what makes the platform's
//       consistency guarantee sound; and
//   (b) keeps an undo log so that a throwing handler leaves state
//       untouched (the bee also discards the handler's emitted messages).
//       The log holds each overwritten entry itself, moved out of the
//       dictionary, so capturing it copies and encodes nothing.
#pragma once

#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "state/cell.h"
#include "state/store.h"

namespace beehive {

/// Raised when a handler touches state outside its mapped cells. This is a
/// design bug in the application; surfacing it loudly is how the platform
/// keeps the "distributed twin" faithful to centralized behaviour.
class StateAccessError : public std::logic_error {
 public:
  explicit StateAccessError(const std::string& what)
      : std::logic_error(what) {}
};

/// What a transaction is allowed to touch.
struct AccessPolicy {
  CellSet allowed;
  /// Borrowed alternative to `allowed`: when set, the policy reads cells
  /// from a CellSet owned by the caller (the dispatch path's single Map
  /// result) instead of copying it. The borrowed set must outlive the
  /// transaction — the hive guarantees this because the handler runs
  /// synchronously inside the dispatch frame that computed the set.
  const CellSet* borrowed = nullptr;
  /// Dictionaries the handler may scan and access key-wise in full. Used
  /// by foreach handlers: the bee's local slice of the dictionary is
  /// exclusively owned, so granting the whole local dict is sound.
  std::vector<std::string> scan_dicts;
  bool unrestricted = false;  ///< Platform-internal transactions only.

  static AccessPolicy all() {
    AccessPolicy p;
    p.unrestricted = true;
    return p;
  }
  static AccessPolicy cells(CellSet c) {
    AccessPolicy p;
    p.allowed = std::move(c);
    return p;
  }
  /// Zero-copy policy over a caller-owned Map result (see `borrowed`).
  static AccessPolicy cells_view(const CellSet& c) {
    AccessPolicy p;
    p.borrowed = &c;
    return p;
  }
  static AccessPolicy local_dict(std::string dict) {
    AccessPolicy p;
    p.scan_dicts.push_back(std::move(dict));
    return p;
  }

  /// The cell set this policy grants, owned or borrowed.
  const CellSet& effective() const {
    return borrowed != nullptr ? *borrowed : allowed;
  }

  bool can_access(std::string_view dict, std::string_view key) const;
  bool can_scan(std::string_view dict) const;
};

class Txn {
 public:
  /// One committed mutation, in execution order. The platform ships these
  /// to the bee's replica hive when state replication is enabled.
  struct WriteRecord {
    std::string dict;
    std::string key;
    bool erased = false;
    /// The written value's encoding when the scratch's `redo_values` is
    /// set; empty otherwise, and when erased.
    Bytes value;
  };

  struct UndoEntry {
    std::string dict;
    std::string key;
    std::optional<Dict::Value> prior;  ///< nullopt = key did not exist.
  };

  /// Reusable undo/redo log storage. A dispatch loop that owns one Scratch
  /// and threads it through every transaction pays the log's vector
  /// allocations once, at warmup — afterwards each transaction reuses the
  /// retained capacity (the hive hot path's zero-allocation contract).
  ///
  /// The vectors are entry *pools*: only the first `undo_live` / `redo_live`
  /// elements belong to the current transaction. Retired entries keep their
  /// string/byte capacity, so the steady state re-records a write as a few
  /// assigns (memcpy into retained buffers) instead of constructing and
  /// destroying four strings per message.
  struct Scratch {
    std::vector<UndoEntry> undo;
    std::vector<WriteRecord> redo;
    std::size_t undo_live = 0;
    std::size_t redo_live = 0;
    /// Whether redo records carry the written values' encodings. Only
    /// replication reads them, so a hive sets this when it replicates and
    /// otherwise a write neither copies nor encodes its value for the log.
    bool redo_values = false;
  };

  /// `scratch` is optional external log storage; when null the transaction
  /// owns its logs (one-off transactions in tests and tools). An external
  /// scratch is cleared on construction and must outlive the Txn; its redo
  /// log stays readable through writes() until the next Txn reuses it.
  Txn(StateStore& store, AccessPolicy policy, Scratch* scratch = nullptr)
      : store_(store),
        owned_policy_(std::move(policy)),
        policy_(&owned_policy_),
        scratch_(scratch != nullptr ? scratch : &owned_) {
    scratch_->undo_live = 0;
    scratch_->redo_live = 0;
  }

  /// Borrowed-policy variant for the dispatch hot path: the hive owns the
  /// policy (it outlives the transaction — the handler runs synchronously
  /// inside the dispatch frame that built it), so the transaction pays no
  /// AccessPolicy copy/move at all.
  Txn(StateStore& store, const AccessPolicy* policy,
      Scratch* scratch = nullptr)
      : store_(store),
        policy_(policy),
        scratch_(scratch != nullptr ? scratch : &owned_) {
    scratch_->undo_live = 0;
    scratch_->redo_live = 0;
  }
  ~Txn();

  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  // -- Key-level access (requires the cell or whole-dict permission) ------

  /// The entry's bytes; a typed entry is encoded for the call.
  std::optional<Bytes> get(std::string_view dict, std::string_view key) const;
  bool contains(std::string_view dict, std::string_view key) const;
  void put(std::string_view dict, std::string_view key, Bytes value) {
    write(dict, key, Dict::Value(std::move(value)));
  }
  bool erase(std::string_view dict, std::string_view key);

  /// A copy of a T entry, or T decoded from a raw one (see Dict::Value).
  template <WireEncodable T>
  std::optional<T> get_as(std::string_view dict, std::string_view key) const {
    const Dict* d = readable_dict(dict, key);
    if (d == nullptr) return std::nullopt;
    return d->get_as<T>(key);
  }

  /// Stores `value` as a typed entry. Pass it with std::move: the entry
  /// takes the object itself, and nothing is encoded.
  template <WireEncodable T>
  void put_as(std::string_view dict, std::string_view key, T value) {
    write(dict, key, Dict::Value(std::move(value)));
  }

  // -- Whole-dictionary access (requires (dict, "*") permission) ----------

  /// Iterates all entries in key order, calling `fn(key, const T&)` with
  /// each value as a T (see Dict::for_each_as). Mutating the dict during
  /// iteration is not allowed; collect keys first if you must.
  template <WireEncodable T, typename Fn>
  void for_each(std::string_view dict, Fn&& fn) const {
    if (const Dict* d = scannable_dict(dict)) d->for_each_as<T>(fn);
  }

  std::size_t dict_size(std::string_view dict) const;

  // -- Lifecycle -----------------------------------------------------------

  /// Makes all writes permanent. A transaction not committed before
  /// destruction rolls back.
  void commit();

  /// Reverts every write performed through this transaction.
  void rollback();

  bool committed() const { return committed_; }
  std::size_t write_count() const { return scratch_->redo_live; }

  /// The redo log; meaningful after commit() (empty after rollback). A
  /// view into the scratch's entry pool — valid until the next Txn reuses
  /// the scratch.
  std::span<const WriteRecord> writes() const {
    return {scratch_->redo.data(), scratch_->redo_live};
  }

 private:
  void check_access(std::string_view dict, std::string_view key) const;
  /// Access check plus lookup for a key-level read; null when the
  /// dictionary does not exist.
  const Dict* readable_dict(std::string_view dict, std::string_view key) const;
  /// Whole-dict access check plus lookup for a scan; null when the
  /// dictionary does not exist.
  const Dict* scannable_dict(std::string_view dict) const;
  void write(std::string_view dict, std::string_view key, Dict::Value value);
  void append_undo(std::string_view dict, std::string_view key,
                   std::optional<Dict::Value> prior);
  /// `value` is null for an erase.
  void append_redo(std::string_view dict, std::string_view key,
                   const Dict::Value* value);
  /// Named-dictionary lookup with a one-entry memo: a handler touches one
  /// dictionary almost always, so repeat accesses skip the store's map.
  /// The `_ro` variant never creates the dictionary (read paths must not
  /// grow the store).
  Dict& resolve_dict(std::string_view dict) const;
  Dict* resolve_dict_ro(std::string_view dict) const;

  StateStore& store_;
  AccessPolicy owned_policy_;  ///< backing storage for the owning ctor
  const AccessPolicy* policy_;
  Scratch owned_;     ///< used only when no external scratch was given
  Scratch* scratch_;  ///< &owned_ or the caller's reusable storage
  mutable Dict* cached_dict_ = nullptr;
  bool committed_ = false;
  bool rolled_back_ = false;
};

}  // namespace beehive
