// Durable key-value store with a write-ahead log.
//
// Stands in for the orchestrator's Postgres (§3.4: "the source of truth for
// configuration state is stored durably in the orchestrator"). Writes append
// to a WAL before mutating the materialized map; recovery replays
// snapshot + log. `simulate_crash_and_recover()` models a process crash by
// discarding the materialized state and rebuilding from the "disk" image —
// tests assert the two are always equivalent.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace magma::store {

class WalStore {
 public:
  WalStore() = default;

  void put(const std::string& key, common::Bytes value);
  void erase(const std::string& key);
  std::optional<common::Bytes> get(const std::string& key) const;
  bool contains(const std::string& key) const;
  std::size_t size() const { return map_.size(); }

  // All entries whose key starts with `prefix`, in key order.
  std::vector<std::pair<std::string, common::Bytes>> scan(
      const std::string& prefix) const;

  // Fold the log into the snapshot (compaction).
  void checkpoint();
  std::size_t wal_records() const { return wal_.size(); }

  // Crash model: throw away the materialized map and rebuild from
  // snapshot + WAL. State must be unchanged (verified by tests).
  void simulate_crash_and_recover();

  // Serialize the durable image (snapshot + log).
  common::Bytes serialize() const;
  static common::Result<WalStore> deserialize(common::BytesView data);

  // Monotone version, bumped on every mutation. Used by desired-state sync
  // to cheaply detect "something changed".
  std::uint64_t version() const { return version_; }

 private:
  struct Record {
    bool is_erase;
    std::string key;
    common::Bytes value;
  };

  static void apply(std::map<std::string, common::Bytes>& map,
                    const Record& record);

  std::map<std::string, common::Bytes> snapshot_;
  std::vector<Record> wal_;
  std::map<std::string, common::Bytes> map_;  // materialized view
  std::uint64_t version_ = 0;
};

}  // namespace magma::store
