/// \file dist_partition.hpp
/// \brief The sharded partition-state store: block ids live only where
/// they are needed — no rank holds the O(n_l) assignment vector.
///
/// The distributed hierarchy store (PR 4) removed every replicated level
/// graph, but the partition itself was still replicated: each
/// uncoarsening step all-gathered O(n_l) block ids so that every PE could
/// answer block(u) for every node. This subsystem makes the partition the
/// last O(n) state to go sub-linear per rank:
///
///   * owned entries — each rank stores the block of exactly its
///     shard-owned nodes of one hierarchy level (the same ownership map
///     the DistLevel already replicates in O(num_shards)),
///   * a ghost-block cache — while the partition is bound to a level's
///     §5.2 block-row store, a dense array over the store's local id
///     space (its members and the targets of their rows), filled by
///     point-to-point fetches from the shard owners at bind time and kept
///     current by the moved-node deltas every rank applies after each
///     refinement color class. The refiner's per-arc loops read it by
///     local id; global ids are translated only at ingress,
///   * replicated O(k) block weights, maintained incrementally from the
///     deltas and re-derived per level with one O(k) all-reduce.
///
/// Uncoarsening projects shard-locally: each rank maps its owned fine
/// nodes through its own slice of the contraction map and fetches the few
/// cross-rank coarse ids (halo pairs) point-to-point — no block-id vector
/// is ever all-gathered. The full assignment is materialized exactly
/// once, for the final PartitionResult (carrying a kappa-lint allow()
/// for the no-partition-gathers check).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "graph/partition.hpp"
#include "parallel/comm_stats.hpp"
#include "parallel/dist_hierarchy.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/shard_graph.hpp"
#include "util/types.hpp"

namespace kappa {

/// One rank's share of the partition state of one hierarchy level.
class DistPartition {
 public:
  DistPartition() = default;

  /// Seeds the sharded store for \p level from a replicated partition —
  /// the once-gathered coarsest assignment after initial partitioning.
  /// Each rank keeps only its owned entries; no communication.
  DistPartition(const DistLevel& level, const Partition& replicated,
                PEContext& pe);

  /// Stand-in with no owned domain, bound to \p store with every local
  /// entry read off \p replicated — for tests and oracles that have a
  /// replica anyway (e.g. the distributed-quotient equivalence suite).
  /// project/materialize are unavailable.
  [[nodiscard]] static DistPartition from_replica(const Partition& replicated,
                                                  const BlockRowShard& store);

  [[nodiscard]] BlockID k() const { return k_; }

  /// Binds the ghost-block cache to \p store's local id space: members
  /// take their store block, shard-owned ids their owned entry, and every
  /// other local id is fetched from its shard owner. Collective in
  /// lockstep (one fetch rendezvous). \p store must outlive the binding.
  void bind(const BlockRowShard& store, PEContext& pe);

  /// Drops the binding and the cache (the store is about to go away).
  void unbind();

  /// Block of local id \p local of the bound store — the per-arc read of
  /// the refiner. The entry must be known.
  [[nodiscard]] BlockID block_of_local(NodeID local) const {
    assert(local < local_block_.size() && local_block_[local] != kInvalidBlock);
    return local_block_[local];
  }

  /// Whether local id \p local of the bound store has a known block.
  [[nodiscard]] bool knows_local(NodeID local) const {
    return local < local_block_.size() && local_block_[local] != kInvalidBlock;
  }

  /// Block of \p global (ingress paths). The node must be known here:
  /// shard-owned, or a known local id of the bound store.
  [[nodiscard]] BlockID block(NodeID global) const {
    const NodeID owned = owned_index(global);
    if (owned != kInvalidNode) return owned_[owned];
    return block_of_local(store_->local_of(global));
  }

  /// Records the block of \p global, which must be a local id of the
  /// bound store (the §5.2 row migrations tell the block owner the blocks
  /// it needs without a fetch). Owned entries must agree — they are
  /// authoritative already.
  void learn(NodeID global, BlockID b);

  /// Applies one committed move: updates every entry this rank holds for
  /// \p u (owned or cached; ranks that hold neither still account the
  /// replicated block weights). Every rank applies every gathered delta,
  /// which is what keeps owned entries, caches and weights globally
  /// consistent.
  void apply_move(NodeID u, BlockID from, BlockID to, NodeWeight weight);

  [[nodiscard]] NodeWeight block_weight(BlockID b) const {
    return block_weight_[b];
  }

  [[nodiscard]] NodeWeight max_block_weight() const {
    NodeWeight mx = 0;
    for (const NodeWeight w : block_weight_) mx = std::max(mx, w);
    return mx;
  }

  /// Shard-local uncoarsening projection: each rank maps its owned nodes
  /// of \p fine through its slice of the contraction map; the few coarse
  /// ids owned by other ranks (cross-rank matched pairs) are fetched
  /// point-to-point, and block weights are re-derived with one O(k)
  /// all-reduce. No O(n_l) gather anywhere.
  [[nodiscard]] static DistPartition project(const DistLevel& fine,
                                             const DistLevel& coarse_level,
                                             const DistPartition& coarse,
                                             PEContext& pe);

  /// Materializes the full replicated partition — the one permitted
  /// block-id gather, used exactly once to fill the final
  /// PartitionResult.
  [[nodiscard]] Partition materialize(PEContext& pe) const;

  /// Resident size of this rank's partition state: owned entries plus
  /// ghost-block cache entries of non-owned nodes (arcs unused).
  [[nodiscard]] ShardFootprint footprint() const {
    ShardFootprint fp;
    fp.owned_nodes = owned_.size();
    fp.ghost_nodes = num_ghost_entries_;
    return fp;
  }

 private:
  /// Index into owned_ of \p global, kInvalidNode if not shard-owned.
  [[nodiscard]] NodeID owned_index(NodeID global) const {
    if (level_ == nullptr) return kInvalidNode;
    const NodeID local = level_->shard.local_of(global);
    return local != kInvalidNode && level_->shard.is_owned(local)
               ? local
               : kInvalidNode;
  }

  /// Grows the cache to the bound store's (ingress-grown) id space.
  void cover_store_ids();

  const DistLevel* level_ = nullptr;  ///< ownership map; null: replica mode
  int num_pes_ = 1;
  int rank_ = 0;
  BlockID k_ = 0;
  /// Blocks of the shard-owned nodes, indexed by owned local id.
  std::vector<BlockID> owned_;
  /// The store the cache is bound to (null: unbound).
  const BlockRowShard* store_ = nullptr;
  /// Ghost-block cache: block per local id of the bound store
  /// (kInvalidBlock: not known).
  std::vector<BlockID> local_block_;
  /// Cache entries of nodes this rank does not shard-own.
  std::uint64_t num_ghost_entries_ = 0;
  /// Replicated per-block weights (O(k)).
  std::vector<NodeWeight> block_weight_;
};

}  // namespace kappa
