/// \file shard_graph_test.cpp
/// \brief Tests for the per-PE data sharding: the ghost-layer ShardGraph
/// of SPMD matching, the §5.2 BlockRowShard of SPMD refinement, the
/// distributed quotient construction, and the wire-format packing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "graph/dynamic_overlay.hpp"
#include "graph/quotient_graph.hpp"
#include "graph/subgraph.hpp"
#include "parallel/dist_hierarchy.hpp"
#include "parallel/dist_partition.hpp"
#include "parallel/pair_view.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/shard_graph.hpp"
#include "parallel/spmd_phases.hpp"
#include "parallel/wire_format.hpp"
#include "util/random.hpp"

namespace kappa {
namespace {

/// Global ids of the members of owned block \p b.
std::vector<NodeID> member_ids(const BlockRowShard& store, BlockID b) {
  std::vector<NodeID> ids;
  for (const NodeID local : store.members(b)) {
    ids.push_back(store.global_of(local));
  }
  return ids;
}

/// The resident row of global node \p u, in global ids.
GraphRow global_row(const BlockRowShard& store, NodeID u) {
  const GraphRowView view = store.row_view(store.local_of(u));
  GraphRow row;
  row.weight = view.weight;
  for (const NodeID t : view.targets) row.targets.push_back(store.global_of(t));
  row.weights.assign(view.weights.begin(), view.weights.end());
  return row;
}

// ------------------------------------------------------------ wire format ----

TEST(WireFormat, PacksNearInvalidIdsWithoutTruncation) {
  // Regression for the silent-truncation hazard the static_asserts pin:
  // ids near kInvalidNode must round-trip through the one-word packing.
  const NodeID hi = kInvalidNode - 1;
  const NodeID lo = 7;
  const auto [first, second] = unpack_pair(pack_pair(hi, lo));
  EXPECT_EQ(first, hi);
  EXPECT_EQ(second, lo);
  const auto [f2, s2] = unpack_pair(pack_pair(kInvalidNode, hi));
  EXPECT_EQ(f2, kInvalidNode);
  EXPECT_EQ(s2, hi);
}

TEST(WireFormat, EdgeKeyIsCanonicalAndInjective) {
  const NodeID a = kInvalidNode - 2;
  const NodeID b = 3;
  EXPECT_EQ(edge_key(a, b), edge_key(b, a));
  EXPECT_NE(edge_key(a, b), edge_key(a, b + 1));
  EXPECT_NE(edge_key(a, b), edge_key(a - 1, b));
  // The canonical (lo, hi) layout survives unpacking.
  const auto [lo, hi] = unpack_pair(edge_key(a, b));
  EXPECT_EQ(lo, b);
  EXPECT_EQ(hi, a);
}

// ------------------------------------------------------------- ShardGraph ----

/// The finest level alone: a DistHierarchy over \p g, sharded into
/// \p num_shards, whose contraction limit stops it before the first
/// matching. Its level(0) is the finest ShardGraph after the ghost refresh.
DistHierarchy finest_only(const StaticGraph& g, BlockID num_shards,
                          PEContext& pe) {
  CoarseningOptions options;
  options.matching_pes = num_shards;
  options.contraction_limit = g.num_nodes();
  return DistHierarchy(g, options, Rng(1), pe);
}

TEST(ShardGraph, ResidentLayerIsOwnedPlusOneHopHalo) {
  Rng rng(7);
  const StaticGraph g = random_geometric_graph(2000, rng);
  const BlockID num_shards = 8;
  const int p = 4;
  PERuntime runtime(p, 1);
  std::vector<std::uint64_t> owned_count(p, 0);
  runtime.run([&](PEContext& pe) {
    const DistHierarchy hierarchy = finest_only(g, num_shards, pe);
    const ShardGraph& shard = hierarchy.level(0).shard;
    owned_count[pe.rank()] = shard.num_owned();

    // Owned set: exactly the union of this rank's shards.
    std::set<NodeID> owned;
    for (const GraphShard& s : hierarchy.level(0).my_shards) {
      for (const NodeID u : s.nodes) owned.insert(u);
    }
    ASSERT_EQ(owned.size(), shard.num_owned());

    // Ghost layer: exactly the one-hop out-neighborhood of the owned set.
    std::set<NodeID> expected_ghosts;
    for (const NodeID u : owned) {
      for (const NodeID v : g.neighbors(u)) {
        if (owned.count(v) == 0) expected_ghosts.insert(v);
      }
    }
    ASSERT_EQ(expected_ghosts.size(), shard.num_ghost());
    EXPECT_LT(shard.footprint().resident_nodes(), g.num_nodes());

    // Owned rows reproduce the replica rows (as multisets — the local
    // CSR orders core arcs before ghost arcs); ghost weights and
    // weighted degrees came over the wire and must match the replica.
    for (NodeID local = 0; local < shard.num_local(); ++local) {
      const NodeID global = shard.global_of(local);
      EXPECT_EQ(shard.csr().node_weight(local), g.node_weight(global));
      EXPECT_EQ(shard.weighted_degrees()[local], g.weighted_degree(global));
      EXPECT_EQ(shard.local_of(global), local);
      if (!shard.is_owned(local)) continue;
      std::multiset<std::pair<NodeID, EdgeWeight>> resident_arcs;
      for (EdgeID e = shard.csr().first_arc(local);
           e < shard.csr().last_arc(local); ++e) {
        resident_arcs.emplace(shard.global_of(shard.csr().arc_target(e)),
                              shard.csr().arc_weight(e));
      }
      std::multiset<std::pair<NodeID, EdgeWeight>> replica_arcs;
      for (EdgeID e = g.first_arc(global); e < g.last_arc(global); ++e) {
        replica_arcs.emplace(g.arc_target(e), g.arc_weight(e));
      }
      EXPECT_EQ(resident_arcs, replica_arcs) << "node " << global;
    }
  });
  // The owned sets partition the nodes.
  std::uint64_t total = 0;
  for (const std::uint64_t c : owned_count) total += c;
  EXPECT_EQ(total, g.num_nodes());
}

TEST(ShardGraph, SingleRankOwnsEverythingWithoutGhosts) {
  const StaticGraph g = grid_graph(20, 20);
  PERuntime runtime(1, 1);
  runtime.run([&](PEContext& pe) {
    const DistHierarchy hierarchy = finest_only(g, 4, pe);
    const ShardGraph& shard = hierarchy.level(0).shard;
    EXPECT_EQ(shard.num_owned(), g.num_nodes());
    EXPECT_EQ(shard.num_ghost(), 0u);
    EXPECT_EQ(shard.csr().num_arcs(), g.num_arcs());
  });
}

TEST(ShardGraph, GhostRefreshIsCountedInCommStats) {
  Rng rng(3);
  const StaticGraph g = random_geometric_graph(1500, rng);
  PERuntime runtime(2, 1);
  const std::vector<CommStats> per_rank = runtime.run([&](PEContext& pe) {
    const DistHierarchy hierarchy = finest_only(g, 8, pe);
    EXPECT_GT(hierarchy.level(0).shard.num_ghost(), 0u);
  });
  for (const CommStats& s : per_rank) {
    EXPECT_GT(s.messages_sent, 0u);
    EXPECT_GT(s.words_sent, 0u);
  }
}

/// One rank's finest-level resident graph as the §5.2 overlay intake
/// sealed it: the induced owned core, the ghosts taken into a
/// DynamicOverlay as migrated nodes and every rank-remote cross arc added
/// as an overlay edge in both directions, then every row read back through
/// the overlay. Ghost weights and degrees are read off the replica (the
/// channel refresh delivers the same values).
struct OverlayReference {
  std::vector<NodeID> local_to_global;
  std::vector<EdgeID> xadj{0};
  std::vector<NodeID> adj;
  std::vector<EdgeWeight> ewgt;
  std::vector<NodeWeight> vwgt;
  std::vector<EdgeWeight> weighted_degrees;
};

OverlayReference overlay_reference(const StaticGraph& g,
                                   const DistLevel& level, int rank, int p) {
  std::vector<NodeID> owned;
  std::vector<CrossShardArc> ghost_arcs;
  for (const GraphShard& s : level.my_shards) {
    owned.insert(owned.end(), s.nodes.begin(), s.nodes.end());
    for (const CrossShardArc& arc : s.cross_arcs) {
      if (level.owner_of_node(arc.v, p) != rank) ghost_arcs.push_back(arc);
    }
  }
  std::sort(owned.begin(), owned.end());
  std::set<NodeID> ghosts;
  for (const CrossShardArc& arc : ghost_arcs) ghosts.insert(arc.v);

  const Subgraph core = induced_subgraph(g, owned);
  DynamicOverlay intake(core.graph, core.local_to_global);
  for (const NodeID v : ghosts) intake.add_migrated_node(v, g.node_weight(v));
  for (const CrossShardArc& arc : ghost_arcs) {
    intake.add_migrated_edge(arc.u, arc.v, arc.weight);
    intake.add_migrated_edge(arc.v, arc.u, arc.weight);
  }

  OverlayReference ref;
  ref.local_to_global = owned;
  ref.local_to_global.insert(ref.local_to_global.end(), ghosts.begin(),
                             ghosts.end());
  std::map<NodeID, NodeID> local_of;
  for (NodeID l = 0; l < ref.local_to_global.size(); ++l) {
    local_of[ref.local_to_global[l]] = l;
  }
  for (const NodeID global : ref.local_to_global) {
    ref.vwgt.push_back(intake.node_weight(global));
    ref.weighted_degrees.push_back(g.weighted_degree(global));
    intake.for_each_neighbor(global, [&](NodeID target, EdgeWeight w) {
      ref.adj.push_back(local_of.at(target));
      ref.ewgt.push_back(w);
    });
    ref.xadj.push_back(ref.adj.size());
  }
  return ref;
}

// The direct finest-level seal must reproduce the overlay intake's CSR
// exactly — arc order included, since the matcher streams (and with them
// the partitions) read the resident rows in order.
TEST(ShardGraph, FinestSealMatchesOverlayReference) {
  Rng rng(11);
  const std::vector<std::pair<std::string, StaticGraph>> instances = {
      {"rgg", random_geometric_graph(1500, rng)},
      {"delaunay", make_instance("delaunay11", 5)},
      {"grid", grid_graph(30, 40)},
  };
  for (const auto& [name, g] : instances) {
    for (int p = 1; p <= 4; ++p) {
      PERuntime runtime(p, 1);
      runtime.run([&](PEContext& pe) {
        const DistHierarchy hierarchy = finest_only(g, 8, pe);
        const ShardGraph& shard = hierarchy.level(0).shard;
        const OverlayReference ref =
            overlay_reference(g, hierarchy.level(0), pe.rank(), p);
        SCOPED_TRACE(name + " p=" + std::to_string(p) +
                     " rank=" + std::to_string(pe.rank()));
        const StaticGraph& csr = shard.csr();
        ASSERT_EQ(shard.num_local(), ref.local_to_global.size());
        ASSERT_EQ(csr.num_arcs(), ref.adj.size());
        for (NodeID l = 0; l < shard.num_local(); ++l) {
          ASSERT_EQ(shard.global_of(l), ref.local_to_global[l]);
          ASSERT_EQ(csr.first_arc(l), ref.xadj[l]) << "local " << l;
          ASSERT_EQ(csr.last_arc(l), ref.xadj[l + 1]) << "local " << l;
          EXPECT_EQ(csr.node_weight(l), ref.vwgt[l]) << "local " << l;
          EXPECT_EQ(shard.weighted_degrees()[l], ref.weighted_degrees[l])
              << "local " << l;
        }
        for (EdgeID e = 0; e < csr.num_arcs(); ++e) {
          ASSERT_EQ(csr.arc_target(e), ref.adj[e]) << "arc " << e;
          ASSERT_EQ(csr.arc_weight(e), ref.ewgt[e]) << "arc " << e;
        }
      });
    }
  }
}

TEST(ShardGraph, PeerIdTranslationRejectsNonResidentIds) {
  Rng rng(5);
  const StaticGraph g = random_geometric_graph(1200, rng);
  PERuntime runtime(2, 1);
  runtime.run([&](PEContext& pe) {
    const DistHierarchy hierarchy = finest_only(g, 8, pe);
    const ShardGraph& shard = hierarchy.level(0).shard;
    ASSERT_GT(shard.num_ghost(), 0u);
    const NodeID owned = shard.global_of(0);
    const NodeID ghost = shard.global_of(shard.num_owned());
    EXPECT_EQ(shard.peer_owned_of(owned, pe.rank(), 3), 0u);
    EXPECT_EQ(shard.peer_ghost_of(ghost, pe.rank(), 3), shard.num_owned());

    // Not resident anywhere, and resident but in the wrong range: both
    // throw in every build, naming the rank, the level and the id.
    const NodeID foreign = g.num_nodes() + 17;
    try {
      (void)shard.peer_ghost_of(foreign, pe.rank(), 3);
      ADD_FAILURE() << "a non-resident id must throw";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("rank " + std::to_string(pe.rank())),
                std::string::npos) << what;
      EXPECT_NE(what.find("level 3"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(foreign)), std::string::npos)
          << what;
    }
    EXPECT_THROW((void)shard.peer_owned_of(ghost, pe.rank(), 3),
                 std::runtime_error);
    EXPECT_THROW((void)shard.peer_ghost_of(owned, pe.rank(), 3),
                 std::runtime_error);
  });
}

// Coarse rows can carry targets from a peer's shipped contribution; one
// that is neither owned nor a ghost must throw instead of indexing out of
// bounds while the local CSR is sealed.
TEST(ShardGraph, PartsWithAnUnknownTargetThrow) {
  auto parts_with_target = [](NodeID target) {
    ShardGraphParts parts;
    parts.owned = {10, 11};
    parts.owned_rows.ids = {10, 11};
    parts.owned_rows.xadj = {0, 2, 3};
    parts.owned_rows.adj = {11, target, 10};
    parts.owned_rows.ewgt = {1, 1, 1};
    parts.owned_rows.vwgt = {1, 1};
    parts.ghosts = {20};
    return parts;
  };
  const ShardGraph good(parts_with_target(20));
  EXPECT_EQ(good.num_ghost(), 1u);
  EXPECT_EQ(good.csr().num_arcs(), 4u);  // 3 owned arcs + 1 mirror arc
  EXPECT_THROW((void)ShardGraph(parts_with_target(21)), std::runtime_error);
}

// A ghost refresh naming a node the receiver does not hold is rejected by
// the receiver instead of indexing out of bounds.
TEST(ShardGraph, GhostRefreshRejectsAForeignId) {
  const StaticGraph g = grid_graph(20, 20);
  PERuntime runtime(2, 1);
  try {
    runtime.run([&](PEContext& pe) {
      if (pe.rank() == 0) {
        (void)finest_only(g, 4, pe);
        return;
      }
      // Rank 1 answers with a forged refresh triple.
      (void)pe.receive(0);
      pe.send(0, {g.num_nodes() + 3, weight_bits(1), weight_bits(1)});
    });
    ADD_FAILURE() << "the forged refresh must throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("rank 0, level 0"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(g.num_nodes() + 3)), std::string::npos)
        << what;
  }
}

// ------------------------------------------- rank-filtered finest level ----

TEST(FinestLevel, RankFilteredBuildMaterializesOwnShardsOnly) {
  const StaticGraph g = grid_graph(30, 30);
  // One rank holds every shard: the reference the filtered builds match.
  std::vector<BlockID> full_map;
  std::vector<GraphShard> full;
  {
    PERuntime runtime(1, 1);
    runtime.run([&](PEContext& pe) {
      const DistHierarchy hierarchy = finest_only(g, 6, pe);
      full_map = hierarchy.level(0).node_to_shard;
      full = hierarchy.level(0).my_shards;
    });
  }
  ASSERT_EQ(full.size(), 6u);
  const int p = 2;
  PERuntime runtime(p, 1);
  runtime.run([&](PEContext& pe) {
    const DistHierarchy hierarchy = finest_only(g, 6, pe);
    const DistLevel& filtered = hierarchy.level(0);
    EXPECT_EQ(filtered.node_to_shard, full_map);
    ASSERT_EQ(filtered.my_shard_ids.size(), filtered.my_shards.size());
    for (std::size_t i = 0; i < filtered.my_shards.size(); ++i) {
      const BlockID s = filtered.my_shard_ids[i];
      EXPECT_EQ(DistLevel::owner_of_shard(s, p), pe.rank());
      EXPECT_EQ(filtered.my_shards[i].nodes, full[s].nodes);
      EXPECT_EQ(filtered.my_shards[i].cross_arcs.size(),
                full[s].cross_arcs.size());
    }
    // Only the owned shards are materialized: the resident owned set is
    // exactly their nodes.
    std::size_t owned = 0;
    for (const GraphShard& s : filtered.my_shards) owned += s.nodes.size();
    EXPECT_EQ(filtered.shard.num_owned(), owned);
  });
}

// ------------------------------------------- distributed quotient graph ----

TEST(BlockRowShard, GatherQuotientReproducesSequentialConstruction) {
  const StaticGraph g = make_instance("rgg14", 4);
  Config config = Config::preset(Preset::kMinimal, 5);
  config.seed = 2;
  const PartitionResult result =
      Partitioner(Context::sequential(config)).partition(g);
  const Partition& partition = result.partition;
  const QuotientGraph sequential(g, partition);
  ASSERT_GT(sequential.edges().size(), 3u);

  for (const int p : {1, 2, 3}) {
    PERuntime runtime(p, 1);
    runtime.run([&](PEContext& pe) {
      BlockRowShard store(g, partition.assignment(), partition.k(),
                          pe.rank(), p);
      // The sharded partition state in its replica-filled oracle form:
      // the quotient construction reads target blocks from its cache by
      // local id exactly as the pipeline does.
      const DistPartition replica =
          DistPartition::from_replica(partition, store);
      const QuotientGraph merged =
          gather_quotient(store, replica, partition.k(), pe);
      // Bit-for-bit: same edge order, same weights, same boundaries.
      ASSERT_EQ(merged.edges().size(), sequential.edges().size())
          << "p=" << p;
      for (std::size_t i = 0; i < merged.edges().size(); ++i) {
        const QuotientEdge& m = merged.edges()[i];
        const QuotientEdge& s = sequential.edges()[i];
        EXPECT_EQ(m.a, s.a) << "p=" << p << " edge " << i;
        EXPECT_EQ(m.b, s.b) << "p=" << p << " edge " << i;
        EXPECT_EQ(m.cut_weight, s.cut_weight) << "p=" << p << " edge " << i;
        ASSERT_EQ(m.boundary, s.boundary) << "p=" << p << " edge " << i;
      }
      for (BlockID b = 0; b < partition.k(); ++b) {
        EXPECT_EQ(merged.incident(b), sequential.incident(b));
      }
    });
  }
}

// ------------------------------------------------------- BlockRowShard ----

TEST(BlockRowShard, RowsMigrateBetweenStoresOnBlockMoves) {
  const StaticGraph g = grid_graph(8, 8);
  const BlockID k = 4;
  const int p = 2;
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) assignment[u] = u % k;

  BlockRowShard store0(g, assignment, k, 0, p);  // owns blocks 0, 2
  BlockRowShard store1(g, assignment, k, 1, p);  // owns blocks 1, 3
  const std::uint64_t nodes0 = store0.footprint().owned_nodes;
  const std::uint64_t nodes1 = store1.footprint().owned_nodes;
  EXPECT_EQ(nodes0 + nodes1, g.num_nodes());

  // Node 4 (block 0, rank 0) moves to block 1 (rank 1): the departing
  // row is returned by the old owner and taken in by the new one.
  const NodeID u = 4;
  ASSERT_EQ(assignment[u], 0u);
  const GraphRow shipped = global_row(store0, u);
  store0.apply_move(u, 0, 1, nullptr);
  ASSERT_EQ(shipped.targets.size(), g.degree(u));
  store1.apply_move(u, 0, 1, &shipped);

  EXPECT_EQ(store0.footprint().owned_nodes, nodes0 - 1);
  EXPECT_EQ(store1.footprint().owned_nodes, nodes1 + 1);
  const std::vector<NodeID> members1 = member_ids(store1, 1);
  const std::vector<NodeID> members0 = member_ids(store0, 0);
  EXPECT_TRUE(std::binary_search(members1.begin(), members1.end(), u));
  EXPECT_FALSE(std::binary_search(members0.begin(), members0.end(), u));

  // The migrated row answers exactly like the replica at its new home.
  const GraphRow row = global_row(store1, u);
  EXPECT_EQ(row.weight, g.node_weight(u));
  std::vector<NodeID> targets(g.neighbors(u).begin(), g.neighbors(u).end());
  EXPECT_EQ(row.targets, targets);

  // Moving back home un-tombstones the core row, no shipping needed.
  store1.apply_move(u, 1, 0, nullptr);
  store0.apply_move(u, 1, 0, nullptr);
  EXPECT_EQ(store0.footprint().owned_nodes, nodes0);
  EXPECT_EQ(global_row(store0, u).targets, targets);
}

TEST(BlockRowShard, RowSetConstructorMatchesReplicaExtraction) {
  // The replica-free construction path (rows pre-distributed over
  // channels) must assemble the identical store the replica extraction
  // produces: same members, same row content.
  const StaticGraph g = make_instance("grid_s", 3);
  const BlockID k = 6;
  const int p = 2;
  const int rank = 1;
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) assignment[u] = u % k;

  const BlockRowShard from_replica(g, assignment, k, rank, p);

  std::vector<NodeID> mine;
  std::vector<BlockID> row_blocks;
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    if (BlockRowShard::owner_of_block(assignment[u], p) == rank) {
      mine.push_back(u);
      row_blocks.push_back(assignment[u]);
    }
  }
  const BlockRowShard from_rows(extract_rows(g, mine), row_blocks, k, rank, p);

  for (BlockID b = 0; b < k; ++b) {
    ASSERT_EQ(member_ids(from_rows, b), member_ids(from_replica, b))
        << "block " << b;
  }
  for (const NodeID u : mine) {
    const GraphRow a = global_row(from_replica, u);
    const GraphRow b = global_row(from_rows, u);
    EXPECT_EQ(a.weight, b.weight);
    ASSERT_EQ(a.targets, b.targets) << "node " << u;
    ASSERT_EQ(a.weights, b.weights) << "node " << u;
  }
  EXPECT_EQ(from_rows.footprint().owned_nodes,
            from_replica.footprint().owned_nodes);
  EXPECT_EQ(from_rows.footprint().arcs, from_replica.footprint().arcs);
}

/// Checks every local id of \p store against the replica: id round trip,
/// residency, row content for resident rows, member lists for owned
/// blocks, and the bound partition's cached block of every known id.
void expect_store_matches_replica(const BlockRowShard& store,
                                  const DistPartition& partition,
                                  const StaticGraph& g,
                                  const std::vector<BlockID>& assignment,
                                  BlockID k) {
  std::vector<char> resident(g.num_nodes(), 0);
  for (BlockID b = 0; b < k; ++b) {
    std::vector<NodeID> expected;
    if (store.owns_block(b)) {
      for (NodeID u = 0; u < g.num_nodes(); ++u) {
        if (assignment[u] == b) {
          expected.push_back(u);
          resident[u] = 1;
        }
      }
      EXPECT_EQ(member_ids(store, b), expected) << "block " << b;
    }
  }
  std::uint64_t resident_nodes = 0;
  for (NodeID local = 0; local < store.num_local(); ++local) {
    const NodeID u = store.global_of(local);
    ASSERT_EQ(store.local_of(u), local);
    ASSERT_EQ(store.is_resident(local), resident[u] != 0) << "node " << u;
    ASSERT_TRUE(partition.knows_local(local)) << "node " << u;
    EXPECT_EQ(partition.block_of_local(local), assignment[u]) << "node " << u;
    if (!store.is_resident(local)) continue;
    ++resident_nodes;
    const GraphRowView row = store.row_view(local);
    EXPECT_EQ(row.weight, g.node_weight(u));
    ASSERT_EQ(row.targets.size(), g.degree(u)) << "node " << u;
    EdgeID e = g.first_arc(u);
    for (std::size_t i = 0; i < row.targets.size(); ++i, ++e) {
      EXPECT_EQ(store.global_of(row.targets[i]), g.arc_target(e));
      EXPECT_EQ(row.weights[i], g.arc_weight(e));
    }
  }
  EXPECT_EQ(store.footprint().owned_nodes, resident_nodes);
}

/// Moves \p u to block \p to on every rank's store and partition state
/// the way the refiner's delta exchange and row migration do: the old
/// owner's row is shipped to the new owner, and every rank applies the
/// move.
void apply_replica_move(std::vector<BlockRowShard>& stores,
                        std::vector<DistPartition>& partitions,
                        std::vector<BlockID>& assignment, const StaticGraph& g,
                        NodeID u, BlockID to) {
  const int p = static_cast<int>(stores.size());
  const BlockID from = assignment[u];
  const int old_owner = BlockRowShard::owner_of_block(from, p);
  const int new_owner = BlockRowShard::owner_of_block(to, p);
  GraphRow shipped;
  if (old_owner != new_owner) {
    shipped = global_row(stores[old_owner], u);
  }
  assignment[u] = to;
  for (int rank = 0; rank < p; ++rank) {
    partitions[rank].apply_move(u, from, to, g.node_weight(u));
    if (rank == new_owner && old_owner != new_owner) {
      stores[rank].apply_move(u, from, to, &shipped);
      partitions[rank].learn(u, to);
      for (const NodeID t : shipped.targets) {
        partitions[rank].learn(t, assignment[t]);
      }
    } else {
      stores[rank].apply_move(u, from, to, nullptr);
    }
  }
}

TEST(BlockRowShard, LocalIdStoreRoundTripMatchesReplica) {
  // The rank-local id space under every residency change a level can
  // see: a row migrating in (fresh local ids for its unknown targets), a
  // core row migrating out (tombstoned), the departed core row coming
  // back home (un-tombstoned, no shipping), and a migrated row leaving
  // and returning. Every rank applies every delta, as the refiner does.
  const StaticGraph g = grid_graph(8, 8);
  const BlockID k = 4;
  const int p = 2;
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    assignment[u] = (u / 8 < 4 ? 0 : 2) + (u % 8 < 4 ? 0 : 1);
  }
  const Partition replica(g, assignment, k);
  std::vector<BlockRowShard> stores;
  std::vector<DistPartition> partitions;
  for (int rank = 0; rank < p; ++rank) {
    stores.emplace_back(g, assignment, k, rank, p);
  }
  for (int rank = 0; rank < p; ++rank) {
    partitions.push_back(DistPartition::from_replica(replica, stores[rank]));
  }
  for (int rank = 0; rank < p; ++rank) {
    expect_store_matches_replica(stores[rank], partitions[rank], g,
                                 assignment, k);
  }

  auto move = [&](NodeID u, BlockID to) {
    apply_replica_move(stores, partitions, assignment, g, u, to);
    for (int rank = 0; rank < p; ++rank) {
      SCOPED_TRACE("rank " + std::to_string(rank) + " after moving " +
                   std::to_string(u));
      expect_store_matches_replica(stores[rank], partitions[rank], g,
                                   assignment, k);
    }
  };

  // Node 7 sits at the far corner of block 1 (rank 1): moving it to
  // block 0 (rank 0) brings in a row whose targets rank 0 never knew.
  const NodeID in_node = 7;
  ASSERT_EQ(assignment[in_node], 1u);
  const NodeID before = stores[0].num_local();
  move(in_node, 0);
  EXPECT_GT(stores[0].num_local(), before);

  // Node 0 (block 0, rank 0) leaves for block 3 (rank 1): tombstoned.
  const NodeID out_node = 0;
  move(out_node, 3);
  // ... and comes home to block 2 (rank 0): the core row is reused.
  move(out_node, 2);
  // The migrated-in row leaves again and returns: no second copy.
  move(in_node, 1);
  const NodeID after = stores[0].num_local();
  move(in_node, 2);
  EXPECT_EQ(stores[0].num_local(), after);
}

/// Field-by-field equality of two pair views.
void expect_same_view(const PairView& x, const PairView& y) {
  ASSERT_EQ(x.to_global, y.to_global);
  EXPECT_EQ(x.entry, y.entry);
  EXPECT_EQ(x.movable, y.movable);
  EXPECT_EQ(x.seeds, y.seeds);
  ASSERT_EQ(x.graph.num_nodes(), y.graph.num_nodes());
  for (NodeID v = 0; v < x.graph.num_nodes(); ++v) {
    EXPECT_EQ(x.graph.node_weight(v), y.graph.node_weight(v));
    ASSERT_EQ(x.graph.degree(v), y.graph.degree(v)) << "view node " << v;
    for (EdgeID e = x.graph.first_arc(v), f = y.graph.first_arc(v);
         e < x.graph.last_arc(v); ++e, ++f) {
      EXPECT_EQ(x.graph.arc_target(e), y.graph.arc_target(f));
      EXPECT_EQ(x.graph.arc_weight(e), y.graph.arc_weight(f));
    }
  }
}

TEST(PairView, EpochWrapLeaksNoStaleMarks) {
  // The pair builders clear their marks by advancing a 32-bit epoch. Force
  // the epoch up to the wrap and build views back to back: each must equal
  // the view a fresh scratch builds, so no mark stamped before the wrap
  // (nor the unstamped zero entries) can read as current after it.
  const StaticGraph g = make_instance("grid_s", 3);
  const BlockID k = 4;
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    assignment[u] = static_cast<BlockID>((u / 7) % k);
  }
  const Partition replica(g, assignment, k);
  const BlockRowShard store(g, assignment, k, 0, 1);
  const DistPartition partition = DistPartition::from_replica(replica, store);
  const QuotientGraph quotient(g, replica);
  ASSERT_GE(quotient.edges().size(), 2u);
  const int depth = 3;

  auto build = [&](const QuotientEdge& edge, PairScratch& scratch) {
    scratch.begin_pair(store);
    const PairSide a =
        build_pair_side(store, partition, edge.a, edge.b, edge.a,
                        store.members(edge.a), edge.boundary, depth, scratch);
    const PairSide b =
        build_pair_side(store, partition, edge.a, edge.b, edge.b,
                        store.members(edge.b), edge.boundary, depth, scratch);
    return build_pair_view(a, b, replica.block_weight(edge.a),
                           replica.block_weight(edge.b), edge, k, scratch);
  };
  const QuotientEdge& first = quotient.edges()[0];
  const QuotientEdge& second = quotient.edges()[1];
  PairScratch fresh_first;
  PairScratch fresh_second;
  const PairView reference_first = build(first, fresh_first);
  const PairView reference_second = build(second, fresh_second);
  ASSERT_GT(reference_first.to_global.size(), 0u);

  for (const std::uint32_t forced :
       {std::numeric_limits<std::uint32_t>::max() - 1,
        std::numeric_limits<std::uint32_t>::max()}) {
    SCOPED_TRACE("forced epoch " + std::to_string(forced));
    PairScratch scratch;
    // Stamp marks at a low epoch first: after the wrap the epoch restarts
    // low, where these stale stamps would leak if not cleared.
    expect_same_view(build(second, scratch), reference_second);
    scratch.set_epoch_for_testing(forced);
    expect_same_view(build(first, scratch), reference_first);
    expect_same_view(build(first, scratch), reference_first);
    expect_same_view(build(second, scratch), reference_second);
  }
}

TEST(PairView, CandidateSidesMatchTheMemberScanAfterRandomMoves) {
  // The boundary candidates are rebuilt by the quotient construction and
  // then only extended by moves. After any sequence of moves they must
  // still cover every boundary member, so a side seeded from them equals
  // the side seeded from a scan of every member: same band, rows and
  // fringe, at every depth and for every partner block.
  const StaticGraph g = make_instance("rgg14", 5);
  const BlockID k = 6;
  const int p = 2;
  Config config = Config::preset(Preset::kMinimal, k);
  config.seed = 3;
  const Partition replica =
      Partitioner(Context::sequential(config)).partition(g).partition;
  std::vector<BlockID> assignment = replica.assignment();
  std::vector<BlockRowShard> stores;
  std::vector<DistPartition> partitions;
  for (int rank = 0; rank < p; ++rank) {
    stores.emplace_back(g, assignment, k, rank, p);
  }
  for (int rank = 0; rank < p; ++rank) {
    partitions.push_back(DistPartition::from_replica(replica, stores[rank]));
  }
  PERuntime runtime(p, 1);
  runtime.run([&](PEContext& pe) {
    (void)gather_quotient(stores[pe.rank()], partitions[pe.rank()], k, pe);
  });

  auto expect_sides_match = [&](int rank) {
    const BlockRowShard& store = stores[rank];
    const DistPartition& partition = partitions[rank];
    PairScratch scratch;
    for (BlockID side = 0; side < k; ++side) {
      if (!store.owns_block(side)) continue;
      // Superset: every member with a foreign target is a candidate.
      const std::set<NodeID> candidates(store.candidates(side).begin(),
                                        store.candidates(side).end());
      for (const NodeID u : store.members(side)) {
        for (const NodeID t : store.row_view(u).targets) {
          if (partition.block_of_local(t) != side) {
            EXPECT_TRUE(candidates.count(u)) << "node " << store.global_of(u);
            break;
          }
        }
      }
      for (BlockID other = 0; other < k; ++other) {
        if (other == side) continue;
        const BlockID a = std::min(side, other);
        const BlockID b = std::max(side, other);
        for (const int depth : {1, 2, 4}) {
          SCOPED_TRACE("rank " + std::to_string(rank) + " pair " +
                       std::to_string(a) + "-" + std::to_string(b) +
                       " side " + std::to_string(side) + " depth " +
                       std::to_string(depth));
          const PairSide from_candidates =
              build_pair_side(store, partition, a, b, side,
                              store.candidates(side), {}, depth, scratch);
          const PairSide from_members =
              build_pair_side(store, partition, a, b, side,
                              store.members(side), {}, depth, scratch);
          EXPECT_EQ(from_candidates.band, from_members.band);
          EXPECT_EQ(from_candidates.xadj, from_members.xadj);
          EXPECT_EQ(from_candidates.adj, from_members.adj);
          EXPECT_EQ(from_candidates.ewgt, from_members.ewgt);
          EXPECT_EQ(from_candidates.vwgt, from_members.vwgt);
          EXPECT_EQ(from_candidates.fringe, from_members.fringe);
        }
      }
    }
  };

  // Moves across the current boundary (a node joins a neighbor's block),
  // the kind a pair search commits, plus the odd jump to an arbitrary
  // block; both owners and same-owner moves occur.
  Rng rng(17);
  std::size_t moves = 0;
  for (int attempt = 0; moves < 300 && attempt < 1000000; ++attempt) {
    const NodeID u = static_cast<NodeID>(rng.bounded(g.num_nodes()));
    BlockID to = static_cast<BlockID>(rng.bounded(k));
    if (moves % 8 != 0) {
      for (EdgeID e = g.first_arc(u); e < g.last_arc(u); ++e) {
        to = assignment[g.arc_target(e)];
        if (to != assignment[u]) break;
      }
    }
    if (to == assignment[u]) continue;
    apply_replica_move(stores, partitions, assignment, g, u, to);
    if (++moves % 100 == 0) {
      for (int rank = 0; rank < p; ++rank) expect_sides_match(rank);
    }
  }
  ASSERT_EQ(moves, 300u);
}

// ------------------------------------------------------- DistHierarchy ----

TEST(DistHierarchy, LevelsAreShardedNotReplicated) {
  // The tentpole acceptance criterion: every coarsening level exists only
  // as per-PE shards. Per level, the owned sets partition the level's
  // nodes and each rank's resident share (owned + one-hop halo) stays
  // strictly below n_level for p >= 2.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 5;

  for (const int p : {2, 4}) {
    PERuntime runtime(p, config.seed);
    std::vector<std::vector<ShardFootprint>> per_rank(p);
    std::vector<std::vector<NodeID>> level_nodes(p);
    runtime.run([&](PEContext& pe) {
      SpmdCoarsener coarsener(config, pe);
      const DistHierarchy hierarchy = coarsener.coarsen(g);
      for (std::size_t l = 0; l < hierarchy.num_levels(); ++l) {
        per_rank[pe.rank()].push_back(hierarchy.level(l).footprint());
        level_nodes[pe.rank()].push_back(hierarchy.level_nodes(l));
      }
    });
    ASSERT_GE(level_nodes[0].size(), 3u) << "p=" << p;
    for (int rank = 1; rank < p; ++rank) {
      ASSERT_EQ(level_nodes[rank], level_nodes[0]) << "p=" << p;
    }
    for (std::size_t l = 0; l < level_nodes[0].size(); ++l) {
      const NodeID n_level = level_nodes[0][l];
      std::uint64_t total_owned = 0;
      for (int rank = 0; rank < p; ++rank) {
        const ShardFootprint& fp = per_rank[rank][l];
        total_owned += fp.owned_nodes;
        // The per-level resident-memory criterion: sharded, not
        // replicated. (Tiny coarse levels can be halo-dominated, so the
        // strict bound is asserted where sharding can pay off at all.)
        if (n_level >= 512) {
          EXPECT_LT(fp.resident_nodes(), n_level)
              << "p=" << p << " level " << l << " rank " << rank;
          EXPECT_LE(fp.owned_nodes, 2u * n_level / p)
              << "p=" << p << " level " << l << " rank " << rank;
        }
      }
      // The owned sets partition the level exactly.
      EXPECT_EQ(total_owned, n_level) << "p=" << p << " level " << l;
    }
  }
}

TEST(DistHierarchy, SendListsAreTheGhostOwnersOfEveryLevel) {
  // Every halo exchange of the coarsening loop addresses its peers
  // through the level's send list, so on every level each owned node's
  // list must be exactly the owners of its ghost neighbors in the
  // resident CSR (each once), and the peer flags exactly the union of the
  // lists — which the halo symmetry makes mutual between ranks.
  for (const char* instance : {"rgg14", "delaunay14"}) {
    const StaticGraph g = make_instance(instance, 7);
    Config config = Config::preset(Preset::kFast, 16);
    config.seed = 101;
    for (const int p : {2, 3, 4, 5}) {
      PERuntime runtime(p, config.seed);
      std::vector<std::vector<std::vector<char>>> peers(p);
      runtime.run([&](PEContext& pe) {
        SpmdCoarsener coarsener(config, pe);
        const DistHierarchy hierarchy = coarsener.coarsen(g);
        ASSERT_GE(hierarchy.num_levels(), 3u);
        for (std::size_t l = 0; l < hierarchy.num_levels(); ++l) {
          SCOPED_TRACE(std::string(instance) + " p=" + std::to_string(p) +
                       " rank " + std::to_string(pe.rank()) + " level " +
                       std::to_string(l));
          const DistLevel& level = hierarchy.level(l);
          const ShardGraph& shard = level.shard;
          const StaticGraph& csr = shard.csr();
          ASSERT_EQ(level.send_begin.size(), shard.num_owned() + 1u);
          std::vector<char> union_of_lists(p, 0);
          for (NodeID u = 0; u < shard.num_owned(); ++u) {
            std::set<int> expected;
            for (EdgeID e = csr.first_arc(u); e < csr.last_arc(u); ++e) {
              const NodeID t = csr.arc_target(e);
              if (shard.is_owned(t)) continue;
              expected.insert(level.owner_of_node(shard.global_of(t), p));
            }
            const std::span<const int> list = level.send_list(u);
            const std::set<int> listed(list.begin(), list.end());
            ASSERT_EQ(listed.size(), list.size()) << "node " << u;
            ASSERT_EQ(listed, expected) << "node " << u;
            EXPECT_EQ(listed.count(pe.rank()), 0u);
            for (const int q : list) union_of_lists[q] = 1;
          }
          EXPECT_EQ(level.peer, union_of_lists);
          peers[pe.rank()].push_back(level.peer);
        }
      });
      for (int r = 0; r < p; ++r) {
        for (int q = 0; q < p; ++q) {
          for (std::size_t l = 0; l < peers[r].size(); ++l) {
            EXPECT_EQ(peers[r][l][q], peers[q][l][r])
                << instance << " p=" << p << " level " << l << " ranks " << r
                << ", " << q;
          }
        }
      }
    }
  }
}

TEST(DistHierarchy, GatheredCoarsestIsConsistentAcrossPeCounts) {
  // The one permitted gather: the coarsest graph must be identical on
  // every rank and for every p, symmetric, and weight-preserving (its
  // total node weight is the input's — contraction only merges).
  const StaticGraph g = make_instance("delaunay14", 7);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 3;

  std::vector<EdgeID> arcs_seen;
  std::vector<NodeID> nodes_seen;
  for (const int p : {1, 3, 4}) {
    PERuntime runtime(p, config.seed);
    std::vector<NodeID> nodes(p, 0);
    std::vector<EdgeID> arcs(p, 0);
    runtime.run([&](PEContext& pe) {
      SpmdCoarsener coarsener(config, pe);
      DistHierarchy hierarchy = coarsener.coarsen(g);
      const StaticGraph& coarsest = hierarchy.coarsest();
      nodes[pe.rank()] = coarsest.num_nodes();
      arcs[pe.rank()] = coarsest.num_arcs();
      EXPECT_EQ(coarsest.total_node_weight(), g.total_node_weight());
      // Symmetry: every arc has its mirror with equal weight.
      for (NodeID u = 0; u < coarsest.num_nodes(); ++u) {
        for (EdgeID e = coarsest.first_arc(u); e < coarsest.last_arc(u);
             ++e) {
          const NodeID v = coarsest.arc_target(e);
          bool mirrored = false;
          for (EdgeID f = coarsest.first_arc(v); f < coarsest.last_arc(v);
               ++f) {
            if (coarsest.arc_target(f) == u &&
                coarsest.arc_weight(f) == coarsest.arc_weight(e)) {
              mirrored = true;
              break;
            }
          }
          ASSERT_TRUE(mirrored) << "arc " << u << "->" << v << " p=" << p;
        }
      }
    });
    for (int rank = 1; rank < p; ++rank) {
      EXPECT_EQ(nodes[rank], nodes[0]);
      EXPECT_EQ(arcs[rank], arcs[0]);
    }
    nodes_seen.push_back(nodes[0]);
    arcs_seen.push_back(arcs[0]);
  }
  for (std::size_t i = 1; i < nodes_seen.size(); ++i) {
    EXPECT_EQ(nodes_seen[i], nodes_seen[0]);
    EXPECT_EQ(arcs_seen[i], arcs_seen[0]);
  }
}

}  // namespace
}  // namespace kappa
