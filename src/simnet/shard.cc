#include "simnet/shard.h"

#include <algorithm>

namespace sciera::simnet {

ShardMap::ShardMap(std::vector<IsdAs> ases, std::size_t shard_count,
                   ShardPolicy policy)
    : policy_(policy) {
  std::sort(ases.begin(), ases.end());
  ases.erase(std::unique(ases.begin(), ases.end()), ases.end());
  if (shard_count == 0) shard_count = 1;

  table_.reserve(ases.size());
  if (policy == ShardPolicy::kPerIsd) {
    // One key per isolation domain; ASes of an ISD share its shard.
    std::vector<Isd> isds;
    isds.reserve(ases.size());
    for (const IsdAs ia : ases) {
      if (isds.empty() || isds.back() != ia.isd()) isds.push_back(ia.isd());
    }
    shard_count_ = std::min(shard_count, std::max<std::size_t>(isds.size(), 1));
    for (const IsdAs ia : ases) {
      const auto it = std::lower_bound(isds.begin(), isds.end(), ia.isd());
      const auto index = static_cast<std::size_t>(it - isds.begin());
      table_.emplace_back(ia, static_cast<ShardId>(index % shard_count_));
    }
  } else {
    shard_count_ = std::min(shard_count, std::max<std::size_t>(ases.size(), 1));
    for (std::size_t i = 0; i < ases.size(); ++i) {
      table_.emplace_back(ases[i], static_cast<ShardId>(i % shard_count_));
    }
  }
}

Domain ShardMap::domain_of(IsdAs ia) const {
  const auto it = std::lower_bound(
      table_.begin(), table_.end(), ia,
      [](const std::pair<IsdAs, ShardId>& row, IsdAs key) {
        return row.first < key;
      });
  if (it == table_.end() || it->first != ia) return Domain::global();
  return Domain::shard(it->second);
}

}  // namespace sciera::simnet
