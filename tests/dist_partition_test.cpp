/// \file dist_partition_test.cpp
/// \brief Tests for the sharded partition-state store and the §5.2
/// band-limited pair shipping: p-invariance/bit-identity over the full
/// runtime-size range, the depth = infinity / whole-block equivalence
/// property of a pair search, the sub-linear per-rank partition
/// memory, the shipped-volume accounting, the stale-seed hardening of
/// the band BFS, and the executor balancing of a color class.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/partitioner.hpp"
#include "core/phases.hpp"
#include "generators/generators.hpp"
#include "graph/graph_builder.hpp"
#include "graph/metrics.hpp"
#include "graph/quotient_graph.hpp"
#include "graph/validation.hpp"
#include "parallel/dist_partition.hpp"
#include "parallel/pair_view.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/shard_graph.hpp"
#include "parallel/spmd_phases.hpp"
#include "refinement/band.hpp"
#include "refinement/edge_coloring.hpp"
#include "refinement/pairwise_refiner.hpp"

namespace kappa {
namespace {

TEST(DistPartitionStore, RepartitionBitIdenticalForP1Through9) {
  // The acceptance criterion of the sharded partition state: with band
  // shipping enabled (the default), both workloads stay bit-identical and
  // p-invariant over the full runtime-size range, including ragged p and
  // p > k. The from-scratch sweep lives in spmd_pipeline_test; this one
  // covers the warm-started repartitioner, whose migration view now reads
  // block membership from the store alone.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;
  const PartitionResult fresh =
      Partitioner(Context::sequential(config)).partition(g);

  PartitionResult reference;
  for (int p = 1; p <= 9; ++p) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime))
            .repartition(g, fresh.partition);
    EXPECT_EQ(validate_partition(g, result.partition), "");
    if (p == 1) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.cut, reference.cut) << "p=" << p;
    EXPECT_EQ(result.migrated_nodes, reference.migrated_nodes) << "p=" << p;
    for (NodeID u = 0; u < g.num_nodes(); ++u) {
      ASSERT_EQ(result.partition.block(u), reference.partition.block(u))
          << "p=" << p << " node " << u;
    }
    // The per-rank migration intakes account every migrated node once.
    NodeID intake = 0;
    for (const NodeID nodes : result.migrated_per_pe) intake += nodes;
    EXPECT_EQ(intake, result.migrated_nodes) << "p=" << p;
  }
}

TEST(BandShipping, InfiniteDepthReproducesWholeBlockShippingBitForBit) {
  // The volume-correctness property, pair by pair: with the band depth at
  // infinity the shipped sides cover everything a pair search can reach,
  // so refine_pair must find the same moves and gains on the view built
  // from them as on the view built from whole-block sides (ship depth 0,
  // the reference branch of build_pair_side) — band shipping only ever
  // removes nodes the search could never touch.
  const StaticGraph g = make_instance("rgg14", 7);
  Config config = Config::preset(Preset::kMinimal, 6);
  config.seed = 13;
  const Partition replica =
      Partitioner(Context::sequential(config)).partition(g).partition;
  const BlockRowShard store(g, replica.assignment(), replica.k(), 0, 1);
  const DistPartition partition = DistPartition::from_replica(replica, store);
  const QuotientGraph quotient(g, replica);
  ASSERT_GE(quotient.edges().size(), 5u);
  const PairwiseRefinerOptions options = level_refine_options(
      config, max_block_weight_bound(g, config.k, config.eps),
      g.max_node_weight());
  const Rng rng(config.seed);

  struct Outcome {
    EdgeWeight cut_gain = 0;
    NodeWeight imbalance_gain = 0;
    std::vector<std::pair<NodeID, BlockID>> moves;  ///< global ids, sorted
  };
  auto refine_on_view = [&](const QuotientEdge& edge, std::size_t index,
                            int ship_depth) {
    PairScratch scratch;
    scratch.begin_pair(store);
    const PairSide side_a =
        build_pair_side(store, partition, edge.a, edge.b, edge.a,
                        store.members(edge.a), edge.boundary, ship_depth,
                        scratch);
    const PairSide side_b =
        build_pair_side(store, partition, edge.a, edge.b, edge.b,
                        store.members(edge.b), edge.boundary, ship_depth,
                        scratch);
    PairView view = build_pair_view(side_a, side_b,
                                    replica.block_weight(edge.a),
                                    replica.block_weight(edge.b), edge,
                                    replica.k(), scratch);
    const PairRefineResult result =
        refine_pair(view.graph, view.partition, edge.a, edge.b, view.seeds,
                    options, rng, pair_seed_tag(0, index),
                    /*collect_moves=*/true, &view.movable);
    Outcome outcome{result.cut_gain, result.imbalance_gain, {}};
    for (const auto& [v, to] : result.moves) {
      outcome.moves.emplace_back(view.to_global[v], to);
    }
    std::sort(outcome.moves.begin(), outcome.moves.end());
    return outcome;
  };

  std::size_t pairs_with_moves = 0;
  for (std::size_t i = 0; i < quotient.edges().size(); ++i) {
    const QuotientEdge& edge = quotient.edges()[i];
    SCOPED_TRACE("pair " + std::to_string(edge.a) + "-" +
                 std::to_string(edge.b));
    const Outcome whole = refine_on_view(edge, i, /*ship_depth=*/0);
    const Outcome band = refine_on_view(edge, i, /*ship_depth=*/1 << 20);
    EXPECT_EQ(band.cut_gain, whole.cut_gain);
    EXPECT_EQ(band.imbalance_gain, whole.imbalance_gain);
    EXPECT_EQ(band.moves, whole.moves);
    if (!whole.moves.empty()) ++pairs_with_moves;
  }
  // The property is vacuous unless some search actually moves nodes.
  EXPECT_GT(pairs_with_moves, 0u);
}

TEST(BandShipping, ShipsBandsNotWholeBlocks) {
  // The §5.2 migration-volume criterion: per pair the shipped rows are
  // the boundary band (plus its one-hop fringe), strictly below the whole
  // block on a large instance.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kFast, 16);
  config.seed = 5;

  PERuntime runtime(4, config.seed);
  const PartitionResult result =
      Partitioner(Context::spmd(config, runtime)).partition(g);
  ASSERT_EQ(result.pair_ship_per_pe.size(), 4u);
  PairShipStats total;
  for (const PairShipStats& s : result.pair_ship_per_pe) total += s;
  ASSERT_GT(total.pairs_shipped, 0u);
  EXPECT_LT(total.rows_shipped, total.whole_block_rows);
}

TEST(DistPartitionStore, PartitionMemoryIsShardedNotReplicated) {
  // The memory acceptance criterion: the partition was the last O(n)
  // state every rank held. With the sharded store a rank keeps its owned
  // block ids (n/p) plus the ghost-block cache (members + resident-row
  // targets) — strictly below n for p >= 2.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 5;

  {
    PERuntime runtime(1, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    ASSERT_EQ(result.partition_memory_per_pe.size(), 1u);
    // A single rank owns every shard and learns nothing remotely.
    EXPECT_EQ(result.partition_memory_per_pe[0].owned_nodes, g.num_nodes());
    EXPECT_EQ(result.partition_memory_per_pe[0].ghost_nodes, 0u);
  }

  for (const int p : {2, 4, 8}) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    ASSERT_EQ(result.partition_memory_per_pe.size(),
              static_cast<std::size_t>(p));
    std::uint64_t total_owned = 0;
    for (int rank = 0; rank < p; ++rank) {
      const ShardFootprint& fp = result.partition_memory_per_pe[rank];
      EXPECT_GT(fp.owned_nodes, 0u) << "p=" << p << " rank " << rank;
      EXPECT_LT(fp.resident_nodes(), g.num_nodes())
          << "p=" << p << " rank " << rank;
      EXPECT_LE(fp.owned_nodes, 2u * g.num_nodes() / p)
          << "p=" << p << " rank " << rank;
      total_owned += fp.owned_nodes;
    }
    // The owned entries partition the finest level exactly.
    EXPECT_EQ(total_owned, g.num_nodes()) << "p=" << p;
  }
}

TEST(BandShipping, SpmdRunWithMidLevelMovesStaysValidAndPInvariant) {
  // Regression driven from an SPMD run: multiple global iterations over
  // several color classes make quotient seed lists stale mid-level (nodes
  // move to third blocks between the quotient construction and a pair's
  // execution). The band builders must skip those seeds — their rows are
  // no longer resident at the pair's owners — instead of crashing or
  // polluting the band.
  const StaticGraph g = make_instance("road_s", 9);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 3;

  PartitionResult reference;
  for (const int p : {1, 3, 5}) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    EXPECT_EQ(validate_partition(g, result.partition), "");
    EXPECT_TRUE(result.balanced) << "p=" << p;
    if (p == 1) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.cut, reference.cut) << "p=" << p;
    for (NodeID u = 0; u < g.num_nodes(); ++u) {
      ASSERT_EQ(result.partition.block(u), reference.partition.block(u))
          << "p=" << p << " node " << u;
    }
  }
}

TEST(BoundaryBand, StaleSeedsAreSkippedNotExpanded) {
  // Unit regression for the stale-seed hardening: seeds that left the
  // pair — or that no longer name a node of the graph at all — must be
  // skipped before any array access, and a frozen (non-movable) node
  // must neither seed nor admit the band.
  GraphBuilder builder(6);
  for (NodeID u = 0; u + 1 < 6; ++u) builder.add_edge(u, u + 1, 1);
  const StaticGraph g = builder.finalize();
  // Blocks: 0 0 1 1 2 2 — the pair is {0, 1}; nodes 4, 5 left the pair.
  Partition partition(g, {0, 0, 1, 1, 2, 2}, 3);

  const std::vector<NodeID> seeds = {
      1,  // genuine pair boundary
      4,  // stale: moved to block 2
      42  // stale: does not name a node of this graph anymore
  };
  const std::vector<NodeID> band =
      boundary_band_from_seeds(g, partition, 0, 1, seeds, 3);
  // From node 1: depth 0 = {1}, depth 1 adds {0, 2}, depth 2 adds {3};
  // nothing from the stale seeds.
  EXPECT_EQ(band.size(), 4u);
  for (const NodeID u : band) {
    EXPECT_TRUE(partition.block(u) == 0 || partition.block(u) == 1);
  }

  // A movable mask freezes context nodes: with node 3 frozen the band
  // can neither contain nor cross it.
  const std::vector<char> movable = {1, 1, 1, 0, 1, 1};
  const std::vector<NodeID> confined =
      boundary_band_from_seeds(g, partition, 0, 1, seeds, 4, &movable);
  EXPECT_EQ(confined.size(), 3u);
  for (const NodeID u : confined) EXPECT_NE(u, 3u);
}

/// Cost of the busiest rank when \p pairs of \p quotient run at
/// \p executors (cost = |boundary| + 1, the balancer's model).
std::size_t busiest_cost(const QuotientGraph& quotient,
                         const std::vector<std::size_t>& pairs,
                         const std::vector<int>& executors, int p) {
  std::vector<std::size_t> load(p, 0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    load[executors[i]] += quotient.edges()[pairs[i]].boundary.size() + 1;
  }
  return *std::max_element(load.begin(), load.end());
}

TEST(PairExecutors, EveryRankDerivesTheSameBalancedMap) {
  // Every color class of a real quotient, for ragged p and p > k: each
  // rank derives the same map on its own (the per-source send/receive
  // pairing of a class relies on it), each pair runs at one of its two
  // block owners, and the busiest rank carries no more cost than under
  // the owner-of-a rule.
  const StaticGraph g = make_instance("rgg14", 3);
  const BlockID k = 16;
  Config config = Config::preset(Preset::kMinimal, k);
  config.seed = 9;
  const Partition partition =
      Partitioner(Context::sequential(config)).partition(g).partition;
  const QuotientGraph quotient(g, partition);
  const EdgeColoring coloring = color_quotient_edges(quotient, Rng(4));
  ASSERT_GT(coloring.num_colors, 2);

  bool some_class_improved = false;
  for (const int p : {2, 3, 4, 5, 8, 17}) {
    for (int color = 0; color < coloring.num_colors; ++color) {
      SCOPED_TRACE("p=" + std::to_string(p) + " color " +
                   std::to_string(color));
      const std::vector<std::size_t> pairs = coloring.color_class(color);
      std::vector<std::vector<std::uint64_t>> maps(p);
      PERuntime runtime(p, 1);
      runtime.run([&](PEContext& pe) {
        const std::vector<int> mine =
            assign_pair_executors(quotient, pairs, pe.size());
        const auto all = pe.all_gather_vectors(
            std::vector<std::uint64_t>(mine.begin(), mine.end()));
        if (pe.rank() == 0) maps = all;
      });
      for (int r = 1; r < p; ++r) ASSERT_EQ(maps[r], maps[0]) << "rank " << r;
      const std::vector<int> executors(maps[0].begin(), maps[0].end());
      std::vector<int> owner_a;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const QuotientEdge& edge = quotient.edges()[pairs[i]];
        const int ra = BlockRowShard::owner_of_block(edge.a, p);
        const int rb = BlockRowShard::owner_of_block(edge.b, p);
        EXPECT_TRUE(executors[i] == ra || executors[i] == rb) << "pair " << i;
        owner_a.push_back(ra);
      }
      const std::size_t balanced = busiest_cost(quotient, pairs, executors, p);
      const std::size_t by_owner_a = busiest_cost(quotient, pairs, owner_a, p);
      EXPECT_LE(balanced, by_owner_a);
      some_class_improved = some_class_improved || balanced < by_owner_a;
    }
  }
  EXPECT_TRUE(some_class_improved);
}

TEST(PairExecutors, FallsBackToOwnerOfAWhenTheGreedyLoses) {
  // p = 2 (even blocks on rank 0, odd on rank 1). The greedy puts pair
  // {0, 2} (cost 4) on rank 0, so {4, 5} (cost 3) goes to rank 1, where
  // {1, 3} and {7, 9} (cost 3 each, both blocks there) must follow: rank 1
  // would carry 9 against 7 for the owner-of-a map, which is kept.
  const std::vector<QuotientEdge> edges = {
      {0, 2, 1, {0, 1, 2}}, {4, 5, 1, {3, 4}}, {1, 3, 1, {5, 6}},
      {7, 9, 1, {7, 8}}};
  const QuotientGraph quotient(10, edges);
  const std::vector<std::size_t> pairs = {0, 1, 2, 3};
  const std::vector<int> executors = assign_pair_executors(quotient, pairs, 2);
  EXPECT_EQ(executors, (std::vector<int>{0, 0, 1, 1}));
  EXPECT_EQ(busiest_cost(quotient, pairs, executors, 2), 7u);

  // Without the forced pairs the greedy wins: {4, 5} moves to rank 1.
  const std::vector<std::size_t> free_pairs = {0, 1};
  EXPECT_EQ(assign_pair_executors(quotient, free_pairs, 2),
            (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace kappa
