/// \file spmd_phases.hpp
/// \brief SPMD implementations of the three pipeline phases (§3-§5).
///
/// Every PE of the runtime constructs its own phase instances inside the
/// SPMD program and runs the shared run_multilevel_spmd() driver. The
/// graph *data* is sharded end to end: every coarsening level exists only
/// as per-PE shards of the distributed hierarchy store
/// (parallel/dist_hierarchy.hpp), and the partition *state* is sharded
/// too (parallel/dist_partition.hpp) — each rank holds block ids only for
/// its shard-owned nodes plus a ghost-block cache maintained by the
/// moved-node deltas. The phases synchronize internally:
///
///   SpmdCoarsener          — builds the DistHierarchy: shard-local
///     matching with gap resolution over peer channels, owner-computes
///     contraction with halo exchange of boundary match decisions and
///     coarse-edge contributions (§3.3). No contraction map and no level
///     graph is ever gathered.
///   SpmdInitialPartitioner — best-of-p on the once-gathered coarsest
///     graph: the attempts (each with a private RNG stream) are
///     distributed over the PEs, an all-reduce picks the winner and the
///     owning PE broadcasts the partition (§4).
///   SpmdRefiner            — per level, the rows travel from their shard
///     owners to the owners of their nodes' blocks (§5.2 BlockRowShard
///     data distribution, each row with its block word); the quotient
///     graph is merged from per-rank contributions and a pair {a, b} is
///     executed on a pair-local view by one of its two block owners.
///     Partner-block shipping is band-limited (§5.2): each owner runs the
///     bounded boundary-band BFS on its resident rows, seeded from the
///     store's boundary candidates, and ships only the band plus a
///     one-hop fringe of frozen context nodes — the pair search is
///     confined to the band, with exact gains, and migration volume drops
///     from |block| to |band| per pair. The pairs are scheduled in rounds
///     that follow an edge coloring of the replicated quotient, which
///     every rank computes locally with color_quotient_edges() (the
///     coloring the §5.1 protocol draws from the same seed), and within a
///     round each pair goes to the less-loaded of its two owners
///     (assign_pair_executors()).
///     Moved-node deltas (with entry block and weight) plus migrating
///     rows are exchanged after every color class; every rank applies
///     every delta, which keeps the sharded partition state and the
///     replicated O(k) block weights globally consistent.
///
///     The rebalancing insurance loop runs through the same machinery on
///     the retained finest-level store, which also seals the §5.2
///     migration view on warm starts.
///
/// Determinism: all work units are keyed to *virtual* ids — shards, attempt
/// indices, quotient-edge indices — and their RNG streams are forked from
/// config.seed with those ids; every pair view is a pure function of the
/// globally consistent store + partition state. The physical PE count p
/// only decides which PE executes which unit, so a fixed seed yields the
/// identical partition for every p (verified by spmd_pipeline_test and
/// dist_partition_test, p = 1..9 incl. ragged p and p > k).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/phases.hpp"
#include "graph/quotient_graph.hpp"
#include "parallel/dist_hierarchy.hpp"
#include "parallel/dist_partition.hpp"
#include "parallel/pair_view.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/shard_graph.hpp"

namespace kappa {

/// Distributed quotient-graph construction (§5.1 on sharded data): every
/// rank contributes the cut arcs its resident block rows see — target
/// blocks answered by the sharded partition state's ghost-block cache —
/// and the all-gathered contributions are merged identically on every PE:
/// same edge order (first-encounter order of a row scan), same cut
/// weights, same sorted boundary lists. The same row scan rebuilds the
/// store's boundary candidates of every owned block. Exposed for the
/// shard-graph test suite.
[[nodiscard]] QuotientGraph gather_quotient(BlockRowShard& store,
                                            const DistPartition& partition,
                                            BlockID k, PEContext& pe);

/// The executor of every pair of one color class: \p pairs are quotient
/// edge indices in class order, the result is parallel to it and names
/// one of the pair's two block owners among \p num_pes ranks. Longest
/// processing time first: the pairs, by cost |boundary| + 1 descending
/// (ties in class order), each go to the owner with less cost assigned so
/// far (ties to block a's owner). Should that leave the busiest rank with
/// more cost than giving every pair to block a's owner, the owner-of-a map
/// is returned instead. A pure function of replicated data, so every rank
/// derives the same map.
[[nodiscard]] std::vector<int> assign_pair_executors(
    const QuotientGraph& quotient, const std::vector<std::size_t>& pairs,
    int num_pes);

class SpmdCoarsener {
 public:
  /// A non-null \p warm_start restricts contraction to intra-block pairs
  /// of that assignment (the repartitioning coarsening policy) by giving
  /// the matchers the block constraint.
  SpmdCoarsener(const Config& config, PEContext& pe,
                const Partition* warm_start = nullptr)
      : config_(config),
        pe_(pe),
        rng_(Rng(config.seed).fork(1)),
        warm_start_(warm_start) {}

  /// Builds the distributed hierarchy store of \p graph.
  [[nodiscard]] DistHierarchy coarsen(const StaticGraph& graph);

  [[nodiscard]] const SpmdCoarseningStats& stats() const { return stats_; }

 private:
  const Config& config_;
  PEContext& pe_;
  Rng rng_;
  const Partition* warm_start_;
  SpmdCoarseningStats stats_;
};

class SpmdInitialPartitioner final : public InitialPartitioner {
 public:
  SpmdInitialPartitioner(const Config& config, PEContext& pe)
      : config_(config), pe_(pe), rng_(Rng(config.seed).fork(2)) {}

  [[nodiscard]] Partition partition(const StaticGraph& coarsest) override;

 private:
  const Config& config_;
  PEContext& pe_;
  Rng rng_;
};

class SpmdRefiner {
 public:
  /// \p warm is the repartitioning input assignment (nullptr on
  /// from-scratch runs); it anchors the migration view.
  SpmdRefiner(const StaticGraph& finest, const Config& config, PEContext& pe,
              const Partition* warm = nullptr);

  /// Refines the sharded \p partition on hierarchy level \p level in
  /// place. The level's rows are distributed into this rank's block-row
  /// store and the partition state's ghost-block cache is refreshed for
  /// the resident rows' targets; the finest level's store is retained for
  /// rebalance() and the migration view.
  void refine(const DistHierarchy& hierarchy, std::size_t level,
              DistPartition& partition);

  /// Post-pass on the finest level: the §5.2 exception rule applied until
  /// the Lmax bound holds (or attempts run out), running through the same
  /// distributed color-class machinery as refine() on the retained
  /// finest-level store.
  void rebalance(DistPartition& partition);

  /// Warm starts only: this rank's §5.2 migration view, sealed from the
  /// incrementally maintained finest-level store. Block membership is
  /// read exclusively from the store (a member of block b is in block b —
  /// no partition replica is consulted); the warm input assignment is the
  /// resident-by-contract API input.
  [[nodiscard]] MigrationIntake migration_intake() const;

  /// Peak resident size of this PE's §5.2 block-row store over all
  /// levels, including the transient partner-band intake of pair
  /// searches (reported as the ghost component).
  [[nodiscard]] const ShardFootprint& footprint() const { return footprint_; }

  /// Peak resident size of this PE's sharded partition state over all
  /// levels (owned entries + ghost-block cache).
  [[nodiscard]] const ShardFootprint& partition_footprint() const {
    return partition_footprint_;
  }

  /// This rank's §5.2 pair-shipping volume (band vs. whole block): the
  /// sides it shipped to the executing owner of their pair.
  [[nodiscard]] const PairShipStats& ship_stats() const { return ship_stats_; }

 private:
  /// One pairwise_refine()-shaped run on the distributed store: global
  /// iterations over the merged quotient, each run by run_color_classes(),
  /// with the shared stop rule on the all-reduced iteration gains. The
  /// outcome mirrors the replicated implementation's loop, RNG forks and
  /// stop rules exactly — a pure function of (store content, partition
  /// state, options, rng), independent of p.
  void run_pairwise(BlockRowShard& store, DistPartition& partition,
                    const PairwiseRefinerOptions& options, const Rng& base_rng);

  /// One global iteration: color classes of the locally computed
  /// coloring as global rounds, pair execution at the owner
  /// assign_pair_executors() picks, moved-node delta all-gather and row
  /// migration after every class.
  void run_color_classes(BlockRowShard& store, DistPartition& partition,
                         const PairwiseRefinerOptions& options,
                         const Rng& base_rng, const QuotientGraph& quotient,
                         int global, int ship_depth, EdgeWeight& my_cut_gain,
                         NodeWeight& my_imbalance_gain);

  const StaticGraph& finest_;
  const Config& config_;
  PEContext& pe_;
  Rng rng_;
  NodeWeight global_bound_;
  const Partition* warm_;
  ShardFootprint footprint_;
  ShardFootprint partition_footprint_;
  PairShipStats ship_stats_;
  /// Epoch-stamped pair-view scratch, reused across all pairs this rank
  /// builds or ships.
  PairScratch pair_scratch_;
  /// The finest level's store, retained after refine(level 0) for the
  /// rebalancing insurance loop and the migration view.
  std::optional<BlockRowShard> finest_store_;
};

/// The SPMD twin of run_multilevel(): coarsen into the distributed
/// hierarchy store, initial-partition the once-gathered coarsest graph,
/// then project and refine level by level through the sharded contraction
/// maps and the sharded partition state, and run the distributed
/// rebalancing insurance. The full assignment is materialized exactly
/// once, for the returned PartitionResult. Every PE calls this with
/// identical arguments; the phases synchronize internally.
[[nodiscard]] PartitionResult run_multilevel_spmd(const StaticGraph& graph,
                                                  const Config& config,
                                                  SpmdCoarsener& coarsener,
                                                  InitialPartitioner& initial,
                                                  SpmdRefiner& refiner);

}  // namespace kappa
