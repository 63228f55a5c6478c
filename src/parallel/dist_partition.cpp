/// \file dist_partition.cpp
/// \brief Sharded partition state (see dist_partition.hpp).
///
/// Communication discipline: block ids travel point-to-point between the
/// ranks that need them and the shard owners that hold them; the only
/// collectives are the O(k) block-weight all-reduce of a projection and
/// the single tagged materialize() gather that fills the final result.
#include "parallel/dist_partition.hpp"

#include <algorithm>
#include <cassert>

#include "parallel/wire_format.hpp"
#include "util/seeded_hash.hpp"

namespace kappa {

namespace {

/// One deterministic request/response lookup: two waves of the peer
/// rendezvous. Every rank sends one (possibly empty) id list to every
/// other rank, answers the lists it receives with (id, value) pairs, and
/// collects its own answers. FIFO per-source delivery pairs the two waves
/// without tags.
template <typename Answer, typename Deliver>
void rendezvous_lookup(std::vector<std::vector<std::uint64_t>> requests,
                       PEContext& pe, Answer&& answer, Deliver&& deliver) {
  std::vector<std::vector<std::uint64_t>> replies =
      pe.exchange(std::move(requests));
  for (std::vector<std::uint64_t>& words : replies) {
    for (std::uint64_t& word : words) {
      word = pack_pair(static_cast<NodeID>(word),
                       answer(static_cast<NodeID>(word)));
    }
  }
  for (const std::vector<std::uint64_t>& words :
       pe.exchange(std::move(replies))) {
    for (const std::uint64_t word : words) {
      const auto [id, value] = unpack_pair(word);
      deliver(static_cast<NodeID>(id), static_cast<BlockID>(value));
    }
  }
}

}  // namespace

DistPartition::DistPartition(const DistLevel& level,
                             const Partition& replicated, PEContext& pe)
    : level_(&level),
      num_pes_(pe.size()),
      rank_(pe.rank()),
      k_(replicated.k()) {
  const NodeID num_owned = level.shard.num_owned();
  owned_.reserve(num_owned);
  for (NodeID i = 0; i < num_owned; ++i) {
    owned_.push_back(replicated.block(level.shard.global_of(i)));
  }
  block_weight_.reserve(k_);
  for (BlockID b = 0; b < k_; ++b) {
    block_weight_.push_back(replicated.block_weight(b));
  }
}

DistPartition DistPartition::from_replica(const Partition& replicated,
                                          const BlockRowShard& store) {
  DistPartition result;
  result.k_ = replicated.k();
  result.store_ = &store;
  result.local_block_.reserve(store.num_local());
  for (NodeID local = 0; local < store.num_local(); ++local) {
    result.local_block_.push_back(replicated.block(store.global_of(local)));
  }
  result.num_ghost_entries_ = store.num_local();
  result.block_weight_.reserve(replicated.k());
  for (BlockID b = 0; b < replicated.k(); ++b) {
    result.block_weight_.push_back(replicated.block_weight(b));
  }
  return result;
}

void DistPartition::bind(const BlockRowShard& store, PEContext& pe) {
  assert(level_ != nullptr && "binding needs the level ownership map");
  store_ = &store;
  local_block_.assign(store.num_local(), kInvalidBlock);
  num_ghost_entries_ = 0;
  for (BlockID b = 0; b < k_; ++b) {
    if (!store.owns_block(b)) continue;
    for (const NodeID local : store.members(b)) local_block_[local] = b;
  }
  for (NodeID local = 0; local < store.num_local(); ++local) {
    const NodeID owned = owned_index(store.global_of(local));
    if (owned == kInvalidNode) {
      ++num_ghost_entries_;
    } else {
      assert(local_block_[local] == kInvalidBlock ||
             local_block_[local] == owned_[owned]);
      local_block_[local] = owned_[owned];
    }
  }
  // Every local id still unknown is fetched from its shard owner.
  std::vector<std::vector<std::uint64_t>> requests(num_pes_);
  for (NodeID local = 0; local < local_block_.size(); ++local) {
    if (local_block_[local] != kInvalidBlock) continue;
    const NodeID g = store.global_of(local);
    const int owner = level_->owner_of_node(g, num_pes_);
    if (owner != rank_) requests[owner].push_back(g);
  }
  rendezvous_lookup(
      std::move(requests), pe,
      [&](NodeID g) { return owned_[owned_index(g)]; },
      [&](NodeID g, BlockID b) { local_block_[store.local_of(g)] = b; });
}

void DistPartition::unbind() {
  store_ = nullptr;
  local_block_.clear();
  local_block_.shrink_to_fit();
  num_ghost_entries_ = 0;
}

void DistPartition::cover_store_ids() {
  for (NodeID local = static_cast<NodeID>(local_block_.size());
       local < store_->num_local(); ++local) {
    const NodeID owned = owned_index(store_->global_of(local));
    if (owned == kInvalidNode) {
      local_block_.push_back(kInvalidBlock);
      ++num_ghost_entries_;
    } else {
      local_block_.push_back(owned_[owned]);
    }
  }
}

void DistPartition::learn(NodeID global, BlockID b) {
  assert(store_ != nullptr && "learning needs a bound store");
  cover_store_ids();
  const NodeID local = store_->local_of(global);
  assert(local != kInvalidNode && "learned ids must be local to the store");
  assert((owned_index(global) == kInvalidNode ||
          owned_[owned_index(global)] == b) &&
         "learned block contradicts owned entry");
  local_block_[local] = b;
}

void DistPartition::apply_move(NodeID u, BlockID from, BlockID to,
                               NodeWeight weight) {
  assert(from < k_ && to < k_);
  block_weight_[from] -= weight;
  block_weight_[to] += weight;
  const NodeID owned = owned_index(u);
  if (owned != kInvalidNode) {
    assert(owned_[owned] == from && "delta disagrees with owned entry");
    owned_[owned] = to;
  }
  if (store_ == nullptr) return;
  const NodeID local = store_->local_of(u);
  if (knows_local(local)) {
    assert(local_block_[local] == from && "delta disagrees with cached entry");
    local_block_[local] = to;
  }
}

DistPartition DistPartition::project(const DistLevel& fine,
                                     const DistLevel& coarse_level,
                                     const DistPartition& coarse,
                                     PEContext& pe) {
  const int p = pe.size();
  const NodeID num_owned = fine.shard.num_owned();
  assert(fine.owned_to_coarse.size() == num_owned &&
         "projection needs the sharded contraction map");

  DistPartition result;
  result.level_ = &fine;
  result.num_pes_ = p;
  result.rank_ = pe.rank();
  result.k_ = coarse.k();
  result.owned_.assign(num_owned, kInvalidBlock);

  // Shard-local pass: a fine node's coarse id was assigned by the shard
  // of the pair's canonical endpoint, so it is owned here unless the node
  // was matched across ranks — those few ids are fetched point-to-point
  // from the coarse shard owners below.
  std::vector<std::vector<std::uint64_t>> requests(p);
  for (NodeID i = 0; i < num_owned; ++i) {
    const NodeID c = fine.owned_to_coarse[i];
    const NodeID owned = coarse.owned_index(c);
    if (owned != kInvalidNode) {
      result.owned_[i] = coarse.owned_[owned];
    } else {
      requests[coarse_level.owner_of_node(c, p)].push_back(c);
    }
  }
  hash_map<NodeID, BlockID> remote;
  rendezvous_lookup(
      std::move(requests), pe,
      [&](NodeID c) { return coarse.owned_[coarse.owned_index(c)]; },
      [&](NodeID c, BlockID b) { remote.emplace(c, b); });
  for (NodeID i = 0; i < num_owned; ++i) {
    if (result.owned_[i] == kInvalidBlock) {
      result.owned_[i] = remote.at(fine.owned_to_coarse[i]);
    }
  }

  // Block weights from the sharded node weights: partial sums over the
  // owned nodes, one O(k) all-reduce.
  const StaticGraph& resident = fine.shard.csr();
  std::vector<std::uint64_t> partial(result.k_, 0);
  for (NodeID i = 0; i < num_owned; ++i) {
    partial[result.owned_[i]] +=
        static_cast<std::uint64_t>(resident.node_weight(i));
  }
  const std::vector<std::uint64_t> sums =
      pe.all_reduce_sum_vec(std::move(partial));
  result.block_weight_.reserve(result.k_);
  for (const std::uint64_t w : sums) {
    result.block_weight_.push_back(static_cast<NodeWeight>(w));
  }
  return result;
}

Partition DistPartition::materialize(PEContext& pe) const {
  assert(level_ != nullptr && "materializing needs the level ownership map");
  const int p = pe.size();
  std::vector<std::uint64_t> words(owned_.begin(), owned_.end());
  const auto gathered =
      // kappa-lint: allow(no-partition-gathers, "the one sanctioned gather: the final PartitionResult")
      pe.all_gather_vectors(std::move(words));
  std::vector<BlockID> assignment(level_->global_n, 0);
  for (int q = 0; q < p; ++q) {
    std::size_t idx = 0;
    level_->for_each_owned_of_rank(q, p, [&](NodeID u) {
      assignment[u] = static_cast<BlockID>(gathered[q][idx++]);
    });
  }
  return Partition(std::move(assignment), k_, block_weight_);
}

}  // namespace kappa
