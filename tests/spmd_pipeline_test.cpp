/// \file spmd_pipeline_test.cpp
/// \brief Tests for the SPMD end-to-end pipeline: the finest-level sharding, the
/// parallel entry point's validity and quality, its p-invariance (fixed
/// seed => identical partition for every PE count) and the surfaced
/// communication statistics.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/validation.hpp"
#include "parallel/dist_hierarchy.hpp"
#include "parallel/pe_runtime.hpp"

namespace kappa {
namespace {

// ----------------------------------------------------------- finest level ----

/// Runs \p visit(pe, level) on every rank of a \p p-rank runtime, with
/// level the finest DistLevel of \p g sharded into \p num_shards (the
/// contraction limit stops the hierarchy before its first matching).
template <typename Visit>
void for_each_finest_level(const StaticGraph& g, BlockID num_shards, int p,
                           Visit&& visit) {
  CoarseningOptions options;
  options.matching_pes = num_shards;
  options.contraction_limit = g.num_nodes();
  PERuntime runtime(p, 1);
  runtime.run([&](PEContext& pe) {
    const DistHierarchy hierarchy(g, options, Rng(1), pe);
    ASSERT_EQ(hierarchy.num_levels(), 1u);
    visit(pe, hierarchy.level(0));
  });
}

TEST(FinestLevel, ShardsPartitionTheNodes) {
  Rng rng(7);
  const StaticGraph g = random_geometric_graph(2000, rng);
  std::vector<std::vector<int>> seen(3, std::vector<int>(g.num_nodes(), 0));
  for_each_finest_level(g, 8, 3, [&](PEContext& pe, const DistLevel& level) {
    ASSERT_EQ(level.num_shards, 8u);
    ASSERT_EQ(level.my_shards.size(), level.my_shard_ids.size());
    for (std::size_t i = 0; i < level.my_shards.size(); ++i) {
      for (const NodeID u : level.my_shards[i].nodes) {
        EXPECT_EQ(level.shard_of(u), level.my_shard_ids[i]);
        ++seen[pe.rank()][u];
      }
    }
  });
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(seen[0][u] + seen[1][u] + seen[2][u], 1) << "node " << u;
  }
}

TEST(FinestLevel, CrossArcsAreExactlyTheShardBoundary) {
  const StaticGraph g = grid_graph(30, 30);
  std::vector<std::size_t> listed(2, 0);
  std::vector<BlockID> node_to_shard;
  for_each_finest_level(g, 4, 2, [&](PEContext& pe, const DistLevel& level) {
    if (pe.rank() == 0) node_to_shard = level.node_to_shard;
    for (std::size_t i = 0; i < level.my_shards.size(); ++i) {
      const BlockID s = level.my_shard_ids[i];
      for (const CrossShardArc& arc : level.my_shards[i].cross_arcs) {
        EXPECT_EQ(level.shard_of(arc.u), s);
        EXPECT_NE(level.shard_of(arc.v), s);
      }
      listed[pe.rank()] += level.my_shards[i].cross_arcs.size();
    }
  });
  std::size_t cross = 0;
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    for (EdgeID e = g.first_arc(u); e < g.last_arc(u); ++e) {
      if (node_to_shard[u] != node_to_shard[g.arc_target(e)]) ++cross;
    }
  }
  EXPECT_EQ(listed[0] + listed[1], cross);
}

TEST(FinestLevel, RoundRobinOwnershipCoversAllShards) {
  const StaticGraph g = grid_graph(20, 20);
  const int p = 4;
  std::vector<std::vector<BlockID>> shards_of(p);
  for_each_finest_level(g, 6, p, [&](PEContext& pe, const DistLevel& level) {
    shards_of[pe.rank()] = level.my_shard_ids;
  });
  std::vector<int> owner_count(p, 0);
  for (BlockID s = 0; s < 6; ++s) {
    const int owner = DistLevel::owner_of_shard(s, p);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, p);
    ++owner_count[owner];
  }
  int total = 0;
  for (int rank = 0; rank < p; ++rank) {
    EXPECT_EQ(static_cast<int>(shards_of[rank].size()), owner_count[rank]);
    EXPECT_TRUE(std::is_sorted(shards_of[rank].begin(), shards_of[rank].end()));
    for (const BlockID s : shards_of[rank]) {
      EXPECT_EQ(DistLevel::owner_of_shard(s, p), rank);
    }
    total += static_cast<int>(shards_of[rank].size());
  }
  EXPECT_EQ(total, 6);
}

// -------------------------------------------------------- SPMD pipeline ----

TEST(SpmdPipeline, ValidBalancedPartition) {
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 5;
  PERuntime runtime(2, config.seed);
  const PartitionResult result =
      Partitioner(Context::spmd(config, runtime)).partition(g);

  EXPECT_EQ(validate_partition(g, result.partition), "");
  EXPECT_EQ(result.partition.k(), 8u);
  EXPECT_TRUE(result.balanced) << "balance=" << result.balance;
  EXPECT_EQ(edge_cut(g, result.partition), result.cut);
  for (BlockID b = 0; b < 8; ++b) {
    EXPECT_GT(result.partition.block_weight(b), 0) << "empty block " << b;
  }
}

/// The headline determinism property: with a fixed seed the partition is a
/// function of the input alone — the runtime size p only changes wall time
/// and communication counters. Swept over the generator families.
class SpmdDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(SpmdDeterminism, SameCutAndPartitionForEveryPeCount) {
  const StaticGraph g = make_instance(GetParam(), 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;

  PartitionResult reference;
  for (const int p : {1, 2, 4}) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    EXPECT_EQ(validate_partition(g, result.partition), "");
    if (p == 1) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.cut, reference.cut) << GetParam() << " p=" << p;
    for (NodeID u = 0; u < g.num_nodes(); ++u) {
      ASSERT_EQ(result.partition.block(u), reference.partition.block(u))
          << GetParam() << " p=" << p << " node " << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, SpmdDeterminism,
                         ::testing::Values("rgg14", "delaunay14", "road_s",
                                           "annulus_m"));

TEST(SpmdPipeline, BitIdenticalForP1Through9) {
  // The distributed-hierarchy acceptance criterion: bit-identity and
  // p-invariance over the full runtime-size range, including ragged p
  // (3, 5, 6, 7 do not divide the shard count) and p > k (9 PEs for
  // k = 8 leaves rank 8 without shards or blocks — it must idle in
  // lockstep).
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;

  PartitionResult reference;
  for (int p = 1; p <= 9; ++p) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    EXPECT_EQ(validate_partition(g, result.partition), "");
    if (p == 1) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.cut, reference.cut) << "p=" << p;
    EXPECT_EQ(result.hierarchy_levels, reference.hierarchy_levels) << p;
    for (NodeID u = 0; u < g.num_nodes(); ++u) {
      ASSERT_EQ(result.partition.block(u), reference.partition.block(u))
          << "p=" << p << " node " << u;
    }
  }
}

TEST(SpmdPipeline, RepeatedRunsAreIdentical) {
  const StaticGraph g = make_instance("delaunay14", 3);
  Config config = Config::preset(Preset::kMinimal, 4);
  config.seed = 9;
  PERuntime first(2, config.seed);
  PERuntime second(2, config.seed);
  const PartitionResult a =
      Partitioner(Context::spmd(config, first)).partition(g);
  const PartitionResult b =
      Partitioner(Context::spmd(config, second)).partition(g);
  EXPECT_EQ(a.cut, b.cut);
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(a.partition.block(u), b.partition.block(u));
  }
}

/// Acceptance criterion of the SPMD refactor: on the paper's geometric
/// instance families the parallel path must stay within 5% of the
/// sequential cut (both paths are deterministic, so this is a fixed
/// comparison, not a statistical one).
class SpmdParity : public ::testing::TestWithParam<std::string> {};

TEST_P(SpmdParity, CutWithinFivePercentOfSequential) {
  const StaticGraph g = make_instance(GetParam(), 11);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 5;
  const PartitionResult sequential =
      Partitioner(Context::sequential(config)).partition(g);
  ASSERT_TRUE(sequential.balanced);

  for (const int p : {2, 4}) {
    PERuntime runtime(p, config.seed);
    const PartitionResult parallel =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    EXPECT_TRUE(parallel.balanced) << GetParam() << " p=" << p;
    EXPECT_LE(static_cast<double>(parallel.cut),
              1.05 * static_cast<double>(sequential.cut))
        << GetParam() << " p=" << p << ": parallel cut " << parallel.cut
        << " vs sequential " << sequential.cut;
  }
}

INSTANTIATE_TEST_SUITE_P(GeometricFamilies, SpmdParity,
                         ::testing::Values("rgg14", "delaunay14"));

TEST(SpmdPipeline, SurfacesCommunicationStats) {
  const StaticGraph g = make_instance("rgg14", 2);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 1;

  // Sequential runs leave the SPMD fields empty.
  const PartitionResult sequential =
      Partitioner(Context::sequential(config)).partition(g);
  EXPECT_EQ(sequential.num_pes, 0);
  EXPECT_TRUE(sequential.comm_per_pe.empty());

  PERuntime runtime(4, config.seed);
  const PartitionResult result =
      Partitioner(Context::spmd(config, runtime)).partition(g);
  EXPECT_EQ(result.num_pes, 4);
  ASSERT_EQ(result.comm_per_pe.size(), 4u);
  EXPECT_GT(result.comm.messages_sent, 0u);
  EXPECT_GT(result.comm.words_sent, 0u);
  EXPECT_GT(result.comm.barriers, 0u);

  std::uint64_t words = 0;
  std::uint64_t idle = 0;
  for (const CommStats& s : result.comm_per_pe) {
    words += s.words_sent;
    // Collectives synchronize every PE, so each rank hits barriers.
    EXPECT_GT(s.barriers, 0u);
    EXPECT_EQ(s.idle_ns(), s.collective_idle_ns + s.recv_idle_ns);
    idle += s.idle_ns();
  }
  EXPECT_EQ(words, result.comm.words_sent);
  // Four ranks synchronizing a multilevel pipeline cannot all have
  // waited zero nanoseconds.
  EXPECT_GT(idle, 0u);
  EXPECT_EQ(result.comm.idle_ns(), idle);
}

TEST(SpmdPipeline, ResidentGraphMemoryIsShardedNotReplicated) {
  // The data-sharding acceptance criterion: each rank's peak resident
  // graph data (owned CSR + one-hop ghost halo, across the matcher's
  // ShardGraph and the refiner's block-row store) must stay strictly
  // below n for p >= 2 — the replica is no longer what the SPMD inner
  // loops read.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 5;

  // p = 1: the single rank owns all shards and all blocks.
  {
    PERuntime runtime(1, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    ASSERT_EQ(result.shard_memory_per_pe.size(), 1u);
    EXPECT_EQ(result.shard_memory_per_pe[0].owned_nodes, g.num_nodes());
    EXPECT_EQ(result.shard_memory_per_pe[0].ghost_nodes, 0u);
  }

  for (const int p : {2, 4}) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    ASSERT_EQ(result.shard_memory_per_pe.size(), static_cast<std::size_t>(p));
    std::uint64_t total_owned = 0;
    for (int rank = 0; rank < p; ++rank) {
      const ShardFootprint& fp = result.shard_memory_per_pe[rank];
      EXPECT_GT(fp.owned_nodes, 0u) << "p=" << p << " rank " << rank;
      // Strictly below the replicated O(n)…
      EXPECT_LT(fp.resident_nodes(), g.num_nodes())
          << "p=" << p << " rank " << rank;
      // …and of the owned + one-hop-halo shape: roughly n/p owned (factor
      // 2 covers shard/block imbalance), with the halo a minority share.
      EXPECT_LE(fp.owned_nodes, 2u * g.num_nodes() / p)
          << "p=" << p << " rank " << rank;
      EXPECT_LT(fp.ghost_nodes, fp.owned_nodes)
          << "p=" << p << " rank " << rank;
      EXPECT_GT(fp.arcs, 0u);
      total_owned += fp.owned_nodes;
    }
    // Owned peaks are per-rank maxima over the levels of node partitions,
    // so they can exceed n only through the matcher/refiner mix.
    EXPECT_LE(total_owned, 2u * g.num_nodes()) << "p=" << p;
  }
}

TEST(SpmdPipeline, HierarchyStoreIsShardedAndHaloTrafficIsPerLevel) {
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 5;

  for (const int p : {1, 4}) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);

    // Level shape surfaced with the result.
    ASSERT_EQ(result.hierarchy_level_nodes.size(), result.hierarchy_levels);
    ASSERT_GE(result.hierarchy_levels, 3u);
    EXPECT_EQ(result.hierarchy_level_nodes.front(), g.num_nodes());
    EXPECT_EQ(result.hierarchy_level_nodes.back(), result.coarsest_nodes);
    std::uint64_t replicated_baseline = 0;  // Σ n_level: the old design
    for (const NodeID n_level : result.hierarchy_level_nodes) {
      replicated_baseline += n_level;
    }

    // The resident hierarchy store: Σ_levels (n_level/p + halo) per rank,
    // strictly below the replicated Σ_levels n_level for p >= 2.
    ASSERT_EQ(result.hierarchy_memory_per_pe.size(),
              static_cast<std::size_t>(p));
    std::uint64_t total_owned = 0;
    for (const ShardFootprint& fp : result.hierarchy_memory_per_pe) {
      EXPECT_GT(fp.owned_nodes, 0u);
      if (p >= 2) {
        EXPECT_LT(fp.resident_nodes(), replicated_baseline) << "p=" << p;
        EXPECT_LE(fp.owned_nodes, 2 * replicated_baseline / p) << "p=" << p;
      }
      total_owned += fp.owned_nodes;
    }
    // Owned sets partition every level: the ranks' owned sums add up to
    // the replicated baseline exactly.
    EXPECT_EQ(total_owned, replicated_baseline) << "p=" << p;

    // Per-level halo-exchange breakdown: present for p >= 2, one entry
    // per contraction step, a subset of the totals.
    if (p == 1) {
      for (const LevelHaloStats& h : result.comm.halo_per_level) {
        EXPECT_EQ(h.messages, 0u);  // a single PE has no halo peers
      }
      continue;
    }
    ASSERT_FALSE(result.comm.halo_per_level.empty());
    EXPECT_LE(result.comm.halo_per_level.size(), result.hierarchy_levels);
    std::uint64_t halo_messages = 0;
    std::uint64_t halo_words = 0;
    for (const LevelHaloStats& h : result.comm.halo_per_level) {
      halo_messages += h.messages;
      halo_words += h.words;
    }
    EXPECT_GT(halo_messages, 0u);
    EXPECT_GT(halo_words, 0u);
    EXPECT_LE(halo_messages, result.comm.messages_sent);
    EXPECT_LE(halo_words, result.comm.words_sent);
  }
}

TEST(SpmdPipeline, SingleBlockAndTinyGraphs) {
  // k = 1: no quotient edges, no refinement — must still terminate.
  const StaticGraph g = grid_graph(8, 8);
  Config config = Config::preset(Preset::kMinimal, 1);
  config.seed = 1;
  PERuntime runtime(2, config.seed);
  const PartitionResult result =
      Partitioner(Context::spmd(config, runtime)).partition(g);
  EXPECT_EQ(validate_partition(g, result.partition), "");
  EXPECT_EQ(result.cut, 0);

  // More PEs than shards/blocks: idle PEs must stay in lockstep.
  const StaticGraph tiny = grid_graph(6, 4);
  Config tiny_config = Config::preset(Preset::kFast, 2);
  tiny_config.seed = 3;
  PERuntime big_runtime(4, tiny_config.seed);
  const PartitionResult tiny_result =
      Partitioner(Context::spmd(tiny_config, big_runtime)).partition(tiny);
  EXPECT_EQ(validate_partition(tiny, tiny_result.partition), "");
  EXPECT_TRUE(tiny_result.balanced);
}

// ------------------------------------------------------ golden partitions ----

/// FNV-1a over the block ids: one number that changes with any node's
/// block.
std::uint64_t assignment_hash(const Partition& partition) {
  std::uint64_t h = 1469598103934665603ull;
  for (NodeID u = 0; u < partition.num_nodes(); ++u) {
    h ^= partition.block(u);
    h *= 1099511628211ull;
  }
  return h;
}

struct GoldenCase {
  const char* instance;
  Preset preset;
  std::uint64_t seed;
  EdgeWeight cut;
  std::uint64_t hash;
};

/// Pinned results of the SPMD pipeline at k = 16 (band shipping), so
/// rows migrate between ranks mid-level. The values are properties of
/// the algorithm, not of the data layout: any change to how the refiner
/// stores rows, ids or scratch state must leave them unchanged for
/// p = 1, 2 and 4.
TEST(SpmdGolden, PinnedAssignmentsAtK16) {
  const GoldenCase cases[] = {
      {"rgg14", Preset::kFast, 1, 909, 3529064911001372602ull},
      {"rgg14", Preset::kStrong, 3, 854, 15713943570885949833ull},
      {"delaunay14", Preset::kFast, 1, 2804, 10387633203999347774ull},
      {"delaunay14", Preset::kMinimal, 7, 3116, 9120252921335026221ull},
  };
  for (const GoldenCase& c : cases) {
    const StaticGraph g = make_instance(c.instance, 11);
    Config config = Config::preset(c.preset, 16);
    config.seed = c.seed;
    for (const int p : {1, 2, 4}) {
      PERuntime runtime(p, config.seed);
      const PartitionResult result =
          Partitioner(Context::spmd(config, runtime)).partition(g);
      EXPECT_EQ(result.cut, c.cut) << c.instance << " seed " << c.seed
                                   << " p=" << p;
      EXPECT_EQ(assignment_hash(result.partition), c.hash)
          << c.instance << " seed " << c.seed << " p=" << p;
    }
  }
}

TEST(SpmdGolden, PinnedRepartitionAtK16) {
  // Warm start from a different seed's partition: exercises the finest
  // store's row migrations and the migration view.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kFast, 16);
  config.seed = 2;
  const PartitionResult start =
      Partitioner(Context::sequential(config)).partition(g);
  config.seed = 4;
  for (const int p : {1, 2, 4}) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result = Partitioner(Context::spmd(config, runtime))
                                       .repartition(g, start.partition);
    EXPECT_EQ(result.cut, 968) << "p=" << p;
    EXPECT_EQ(result.migrated_nodes, 142u) << "p=" << p;
    EXPECT_EQ(assignment_hash(result.partition), 17900168635727560273ull)
        << "p=" << p;
  }
}

}  // namespace
}  // namespace kappa
