#include "state/txn.h"

namespace beehive {

bool AccessPolicy::can_access(std::string_view dict,
                              std::string_view key) const {
  if (unrestricted) return true;
  for (const CellKey& c : effective()) {
    if (c.dict != dict) continue;
    if (c.is_whole_dict() || c.key == key) return true;
  }
  for (const std::string& d : scan_dicts) {
    if (d == dict) return true;
  }
  return false;
}

bool AccessPolicy::can_scan(std::string_view dict) const {
  if (unrestricted) return true;
  for (const CellKey& c : effective()) {
    if (c.dict == dict && c.is_whole_dict()) return true;
  }
  for (const std::string& d : scan_dicts) {
    if (d == dict) return true;
  }
  return false;
}

Txn::~Txn() {
  if (!committed_ && !rolled_back_) rollback();
}

void Txn::check_access(std::string_view dict, std::string_view key) const {
  if (!policy_->can_access(dict, key)) {
    throw StateAccessError("handler accessed cell " + std::string(dict) +
                           "/" + std::string(key) +
                           " outside its mapped cells " +
                           policy_->effective().to_string());
  }
}

Dict& Txn::resolve_dict(std::string_view dict) const {
  if (cached_dict_ != nullptr && cached_dict_->name() == dict) {
    return *cached_dict_;
  }
  cached_dict_ = &store_.dict(dict);
  return *cached_dict_;
}

Dict* Txn::resolve_dict_ro(std::string_view dict) const {
  if (cached_dict_ != nullptr && cached_dict_->name() == dict) {
    return cached_dict_;
  }
  Dict* d = store_.find_dict(dict);
  if (d != nullptr) cached_dict_ = d;
  return d;
}

const Dict* Txn::readable_dict(std::string_view dict,
                               std::string_view key) const {
  check_access(dict, key);
  return resolve_dict_ro(dict);
}

std::optional<Bytes> Txn::get(std::string_view dict,
                              std::string_view key) const {
  const Dict* d = readable_dict(dict, key);
  if (d == nullptr) return std::nullopt;
  return d->get(key);
}

bool Txn::contains(std::string_view dict, std::string_view key) const {
  const Dict* d = readable_dict(dict, key);
  return d != nullptr && d->contains(key);
}

// Pool-slot append: entries past the live mark are retired but keep their
// string capacity, so re-recording a write in steady state is a handful of
// assigns into retained buffers (no allocation; see Scratch).
void Txn::append_undo(std::string_view dict, std::string_view key,
                      std::optional<Dict::Value> prior) {
  auto& undo = scratch_->undo;
  if (scratch_->undo_live < undo.size()) {
    UndoEntry& u = undo[scratch_->undo_live];
    u.dict.assign(dict);
    u.key.assign(key);
    u.prior = std::move(prior);
  } else {
    undo.push_back({std::string(dict), std::string(key), std::move(prior)});
  }
  ++scratch_->undo_live;
}

void Txn::append_redo(std::string_view dict, std::string_view key,
                      const Dict::Value* value) {
  auto& redo = scratch_->redo;
  if (scratch_->redo_live == redo.size()) redo.emplace_back();
  WriteRecord& r = redo[scratch_->redo_live];
  r.dict.assign(dict);
  r.key.assign(key);
  r.erased = value == nullptr;
  if (scratch_->redo_values && value != nullptr) {
    r.value = value->bytes();
  } else {
    r.value.clear();
  }
  ++scratch_->redo_live;
}

void Txn::write(std::string_view dict, std::string_view key,
                Dict::Value value) {
  check_access(dict, key);
  Dict& d = resolve_dict(dict);
  // The prior entry rides back out of the same tree traversal that stores
  // the new one, straight into the undo log.
  append_redo(dict, key, &value);
  append_undo(dict, key, d.replace(key, std::move(value)));
}

bool Txn::erase(std::string_view dict, std::string_view key) {
  check_access(dict, key);
  Dict* d = resolve_dict_ro(dict);
  if (d == nullptr) return false;
  std::optional<Dict::Value> prior = d->take(key);
  if (!prior) return false;
  append_redo(dict, key, nullptr);
  append_undo(dict, key, std::move(prior));
  return true;
}

const Dict* Txn::scannable_dict(std::string_view dict) const {
  if (!policy_->can_scan(dict)) {
    throw StateAccessError("handler scanned dictionary " + std::string(dict) +
                           " without whole-dict access " +
                           policy_->effective().to_string());
  }
  return store_.find_dict(dict);
}

std::size_t Txn::dict_size(std::string_view dict) const {
  if (!policy_->can_scan(dict)) {
    throw StateAccessError("dict_size on " + std::string(dict) +
                           " requires whole-dict access");
  }
  const Dict* d = store_.find_dict(dict);
  return d == nullptr ? 0 : d->size();
}

void Txn::commit() {
  committed_ = true;
  // Release the replaced entries now: a retired slot keeps its string
  // capacity, but holding a whole prior value until the slot is reused
  // would keep stale state alive in the hive's scratch. The redo log stays
  // live — the platform reads it for replication through writes().
  for (std::size_t i = 0; i < scratch_->undo_live; ++i) {
    scratch_->undo[i].prior.reset();
  }
  scratch_->undo_live = 0;
}

void Txn::rollback() {
  // Reverse order so overlapping writes to the same key restore correctly.
  // Only the first undo_live entries belong to this transaction.
  auto& undo = scratch_->undo;
  for (std::size_t i = scratch_->undo_live; i > 0; --i) {
    UndoEntry& u = undo[i - 1];
    Dict& d = store_.dict(u.dict);
    if (u.prior.has_value()) {
      d.replace(u.key, std::move(*u.prior));
    } else {
      d.erase(u.key);
    }
  }
  scratch_->undo_live = 0;
  scratch_->redo_live = 0;
  rolled_back_ = true;
}

}  // namespace beehive
