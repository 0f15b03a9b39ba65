#include "store/wal_store.h"

#include "rpc/wire.h"

namespace magma::store {

void WalStore::apply(std::map<std::string, common::Bytes>& map,
                     const Record& record) {
  if (record.is_erase) {
    map.erase(record.key);
  } else {
    map[record.key] = record.value;
  }
}

void WalStore::put(const std::string& key, common::Bytes value) {
  Record rec{false, key, std::move(value)};
  apply(map_, rec);
  wal_.push_back(std::move(rec));
  ++version_;
}

void WalStore::erase(const std::string& key) {
  if (!map_.contains(key)) return;
  Record rec{true, key, {}};
  apply(map_, rec);
  wal_.push_back(std::move(rec));
  ++version_;
}

std::optional<common::Bytes> WalStore::get(const std::string& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

bool WalStore::contains(const std::string& key) const {
  return map_.contains(key);
}

std::vector<std::pair<std::string, common::Bytes>> WalStore::scan(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, common::Bytes>> out;
  for (auto it = map_.lower_bound(prefix); it != map_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it->first, it->second);
  }
  return out;
}

void WalStore::checkpoint() {
  snapshot_ = map_;
  wal_.clear();
}

void WalStore::simulate_crash_and_recover() {
  map_ = snapshot_;
  for (const Record& rec : wal_) apply(map_, rec);
}

common::Bytes WalStore::serialize() const {
  rpc::Writer w;
  w.u64(version_);
  w.u64(snapshot_.size());
  for (const auto& [key, value] : snapshot_) {
    w.str(key);
    w.bytes(value);
  }
  w.u64(wal_.size());
  for (const Record& rec : wal_) {
    w.boolean(rec.is_erase);
    w.str(rec.key);
    w.bytes(rec.value);
  }
  return std::move(w).take();
}

common::Result<WalStore> WalStore::deserialize(common::BytesView data) {
  rpc::Reader r(data);
  WalStore store;
  store.version_ = r.u64();
  const std::uint64_t snapshot_count = r.u64();
  for (std::uint64_t i = 0; i < snapshot_count && r.ok(); ++i) {
    std::string key = r.str();
    store.snapshot_[std::move(key)] = r.bytes();
  }
  const std::uint64_t wal_count = r.u64();
  for (std::uint64_t i = 0; i < wal_count && r.ok(); ++i) {
    Record rec;
    rec.is_erase = r.boolean();
    rec.key = r.str();
    rec.value = r.bytes();
    store.wal_.push_back(std::move(rec));
  }
  if (!r.ok() || !r.at_end()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt WalStore image"};
  }
  store.map_ = store.snapshot_;
  for (const Record& rec : store.wal_) apply(store.map_, rec);
  return store;
}

}  // namespace magma::store
