#include "parallel/spmd_phases.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <numeric>
#include <tuple>
#include <unordered_map>

#include "graph/dynamic_overlay.hpp"
#include "graph/metrics.hpp"
#include "parallel/dist_coloring.hpp"
#include "parallel/pair_view.hpp"
#include "parallel/wire_format.hpp"
#include "refinement/edge_coloring.hpp"
#include "util/progress.hpp"
#include "util/seeded_hash.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace kappa {

// -------------------------------------------------------- SPMD coarsening ----
//
// The whole coarsening phase lives in the distributed hierarchy store
// (parallel/dist_hierarchy.cpp): shard-local matching, gap resolution over
// peer channels, owner-computes contraction with halo exchange. Nothing in
// this section may gather contraction maps or level graphs — the CI guard
// checks that no all_gather appears above the initial-partitioning marker.

DistHierarchy SpmdCoarsener::coarsen(const StaticGraph& graph) {
  CoarseningOptions options = coarsening_options(graph, config_);
  options.warm_start = warm_start_;
  if (warm_start_ != nullptr) {
    options.max_pair_weight_cap = repartition_pair_weight_cap(graph, config_);
  }
  return DistHierarchy(graph, options, rng_, pe_, &stats_);
}

// ------------------------------------------------ SPMD initial partition ----

Partition SpmdInitialPartitioner::partition(const StaticGraph& coarsest) {
  const BlockID k = config_.k;
  const int p = pe_.size();
  const int rank = pe_.rank();
  const NodeID n = coarsest.num_nodes();

  // Attempt pool: the paper repeats initial partitioning "init. repeats"
  // times on each of its p = k PEs. Attempts are keyed by index — not by
  // rank — so the pool and its winner are independent of the physical PE
  // count; the cap keeps huge k from turning this cheap phase into a
  // bottleneck.
  const int attempts =
      std::max(config_.init_repeats,
               std::min(config_.init_repeats * static_cast<int>(k), 32));

  InitialPartitionOptions options;
  options.eps = config_.eps;
  options.repeats = 1;

  // My share of the attempts, each with its private stream (§4: "each with
  // a different seed for the random number generator").
  constexpr std::uint64_t kWorst = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t best_infeasible = kWorst;
  std::uint64_t best_cut = kWorst;
  std::uint64_t best_attempt = kWorst;
  Partition best;
  for (int a = rank; a < attempts; a += p) {
    Rng attempt_rng = rng_.fork(static_cast<std::uint64_t>(a));
    Partition candidate = initial_partition(coarsest, k, options, attempt_rng);
    const std::uint64_t infeasible =
        is_balanced(coarsest, candidate, config_.eps) ? 0 : 1;
    const std::uint64_t cut =
        static_cast<std::uint64_t>(edge_cut(coarsest, candidate));
    const std::uint64_t attempt = static_cast<std::uint64_t>(a);
    if (std::tie(infeasible, cut, attempt) <
        std::tie(best_infeasible, best_cut, best_attempt)) {
      best_infeasible = infeasible;
      best_cut = cut;
      best_attempt = attempt;
      best = std::move(candidate);
    }
  }

  // All-reduce the winner: lexicographic (feasibility, cut, attempt) —
  // the attempt index makes the pick unique and p-invariant.
  const auto entries =
      pe_.all_gather_vectors({best_infeasible, best_cut, best_attempt});
  int winner = 0;
  for (int q = 1; q < p; ++q) {
    if (std::tie(entries[q][0], entries[q][1], entries[q][2]) <
        std::tie(entries[winner][0], entries[winner][1], entries[winner][2])) {
      winner = q;
    }
  }

  // The winning PE broadcasts its solution (§4: "The best solution is then
  // broadcast to all PEs").
  std::vector<std::uint64_t> words;
  if (rank == winner) {
    words.reserve(n);
    for (NodeID u = 0; u < n; ++u) words.push_back(best.block(u));
  }
  const std::vector<std::uint64_t> assignment_words =
      pe_.broadcast(words, winner);
  std::vector<BlockID> assignment(n);
  for (NodeID u = 0; u < n; ++u) {
    assignment[u] = static_cast<BlockID>(assignment_words[u]);
  }
  return Partition(coarsest, std::move(assignment), k);
}

// -------------------------------------------------------- SPMD refinement ----

QuotientGraph gather_quotient(const BlockRowShard& store,
                              const DistPartition& partition, BlockID k,
                              PEContext& pe) {
  // Local contributions per block pair: the minimal (node, arc position)
  // at which one of my resident rows sees the pair (the first-encounter
  // key of a full row scan), my share of the cut weight (counted from the
  // bu < bv side, whose row is resident at exactly one rank), and my
  // boundary nodes. Target blocks come from the sharded partition state's
  // ghost-block cache — no rank consults an assignment replica. The same
  // shape accumulates the merged result below.
  struct PairContribution {
    NodeID first_u = kInvalidNode;
    std::uint64_t first_pos = 0;
    EdgeWeight cut = 0;
    std::vector<NodeID> boundary;
  };
  // Per owned block bu, a dense bv -> contribution slot table keeps the
  // per-arc work to array reads; the ordered map is touched once per
  // (bu, bv) pair.
  std::map<std::pair<BlockID, BlockID>, PairContribution> local;
  std::vector<PairContribution*> slot(k, nullptr);
  std::vector<BlockID> touched;
  for (BlockID bu = 0; bu < k; ++bu) {
    if (!store.owns_block(bu)) continue;
    for (const NodeID lu : store.members(bu)) {
      const NodeID u = store.global_of(lu);
      const GraphRowView row = store.row_view(lu);
      for (std::size_t pos = 0; pos < row.targets.size(); ++pos) {
        const BlockID bv = partition.block_of_local(row.targets[pos]);
        if (bv == bu) continue;
        PairContribution*& c = slot[bv];
        if (c == nullptr) {
          const auto key = std::minmax(bu, bv);
          c = &local[{key.first, key.second}];
          touched.push_back(bv);
        }
        if (std::tie(u, pos) < std::tie(c->first_u, c->first_pos)) {
          c->first_u = u;
          c->first_pos = pos;
        }
        if (bu < bv) c->cut += row.weights[pos];
        if (c->boundary.empty() || c->boundary.back() != u) {
          c->boundary.push_back(u);  // each row is visited exactly once
        }
      }
    }
    for (const BlockID bv : touched) slot[bv] = nullptr;
    touched.clear();
  }

  std::vector<std::uint64_t> words;
  for (const auto& [key, c] : local) {
    words.push_back(pack_pair(key.first, key.second));
    words.push_back(c.first_u);
    words.push_back(c.first_pos);
    words.push_back(weight_bits(c.cut));
    words.push_back(c.boundary.size());
    words.insert(words.end(), c.boundary.begin(), c.boundary.end());
  }

  // Merge the all-gathered contributions — identical code over identical
  // data on every PE. (O(boundary) per rank, not O(n_l): block ids never
  // travel here.)
  hash_map<std::uint64_t, PairContribution> merged;
  for (const auto& vec :
       // kappa-lint: allow(no-refinement-block-gathers, "O(boundary) quotient contributions, never block ids")
       pe.all_gather_vectors(std::move(words))) {
    std::size_t i = 0;
    while (i + 4 < vec.size()) {
      const std::uint64_t key = vec[i];
      const NodeID first_u = static_cast<NodeID>(vec[i + 1]);
      const std::uint64_t first_pos = vec[i + 2];
      const EdgeWeight cut = bits_weight(vec[i + 3]);
      const std::size_t count = vec[i + 4];
      PairContribution& m = merged[key];
      if (std::tie(first_u, first_pos) < std::tie(m.first_u, m.first_pos)) {
        m.first_u = first_u;
        m.first_pos = first_pos;
      }
      m.cut += cut;
      for (std::size_t j = 0; j < count; ++j) {
        m.boundary.push_back(static_cast<NodeID>(vec[i + 5 + j]));
      }
      i += 5 + count;
    }
  }

  // Order the pairs exactly as a sequential row scan first encounters
  // them, then finalize the boundary lists (sorted, unique).
  std::vector<std::uint64_t> keys;
  keys.reserve(merged.size());
  // kappa-lint: allow(determinism-sources, "keys are sorted by first-encounter order right below")
  for (const auto& [key, m] : merged) keys.push_back(key);
  std::sort(keys.begin(), keys.end(), [&](std::uint64_t x, std::uint64_t y) {
    const PairContribution& mx = merged.at(x);
    const PairContribution& my = merged.at(y);
    return std::tie(mx.first_u, mx.first_pos) <
           std::tie(my.first_u, my.first_pos);
  });
  std::vector<QuotientEdge> edges;
  edges.reserve(keys.size());
  for (const std::uint64_t key : keys) {
    PairContribution& m = merged.at(key);
    std::sort(m.boundary.begin(), m.boundary.end());
    m.boundary.erase(std::unique(m.boundary.begin(), m.boundary.end()),
                     m.boundary.end());
    const auto [a, b] = unpack_pair(key);
    edges.push_back({static_cast<BlockID>(a), static_cast<BlockID>(b), m.cut,
                     std::move(m.boundary)});
  }
  return QuotientGraph(k, std::move(edges));
}

SpmdRefiner::SpmdRefiner(const StaticGraph& finest, const Config& config,
                         PEContext& pe, const Partition* warm)
    : finest_(finest),
      config_(config),
      pe_(pe),
      rng_(Rng(config.seed).fork(3)),
      global_bound_(max_block_weight_bound(finest, config.k, config.eps)),
      warm_(warm) {}

void SpmdRefiner::refine(const DistHierarchy& hierarchy, std::size_t level,
                         DistPartition& partition) {
  PairwiseRefinerOptions options = level_refine_options(
      config_, global_bound_, hierarchy.level_max_node_weight(level));
  // Within a PE the pairs run sequentially; concurrency comes from the
  // PEs themselves.
  options.num_threads = 1;
  const BlockID k = partition.k();
  const Rng level_rng = rng_.fork(level);

  // §5.2: "immediately after uncontracting a matching, every PE stores
  // the partition it is responsible for in a static adjacency array
  // representation" — the data distribution step. Rows arrive from their
  // shard owners with their block words and are relabeled into the
  // store's rank-local id space; the partition's ghost-block cache is
  // then bound to that id space (targets' blocks fetched from their shard
  // owners), and every refinement inner loop below reads resident rows,
  // shipped bands, or the cache by local id. The finest level's store is
  // retained (and stays bound): it drives the rebalancing insurance and
  // doubles as the incrementally maintained §5.2 migration view.
  if (level == 0) {
    {
      KAPPA_TRACE_SPAN("refine.distribute");
      finest_store_.emplace(hierarchy.distribute_block_rows(0, partition, k));
      partition.bind(*finest_store_, pe_);
    }
    partition_footprint_.merge_peak(partition.footprint());
    footprint_.merge_peak(finest_store_->footprint());
    run_pairwise(*finest_store_, partition, options, level_rng);
    partition_footprint_.merge_peak(partition.footprint());
    return;
  }
  std::optional<BlockRowShard> store;
  {
    KAPPA_TRACE_SPAN("refine.distribute");
    store.emplace(hierarchy.distribute_block_rows(level, partition, k));
    partition.bind(*store, pe_);
  }
  partition_footprint_.merge_peak(partition.footprint());
  footprint_.merge_peak(store->footprint());
  run_pairwise(*store, partition, options, level_rng);
  partition_footprint_.merge_peak(partition.footprint());
  partition.unbind();
}

void SpmdRefiner::run_pairwise(BlockRowShard& store, DistPartition& partition,
                               const PairwiseRefinerOptions& options,
                               const Rng& base_rng) {
  const BlockID k = partition.k();
  // Band-limited shipping follows the pass's band depth (escalated by the
  // rebalance insurance); 0 = legacy whole-block shipping.
  const int ship_depth = config_.band_shipping ? options.bfs_depth : 0;

  // Async pays its staleness bill where nodes are heaviest: on the small
  // coarse levels every block sits in an in-flight pair at once and a
  // single gain-misjudged move of a contracted supernode can cost more
  // cut than the level's refinement wins — while the barrier bill those
  // levels would save is negligible, their wall-clock share being tiny.
  // So the async scheduler engages only on levels large enough that
  // per-move stakes are small and the barrier savings real; the coarse
  // tail keeps the color-class oracle. The level size is collectively
  // agreed (an all-reduce over the distributed row counts), so every
  // rank picks the same scheduler.
  constexpr std::uint64_t kAsyncMinLevelNodes = 4096;
  bool use_async = false;
  if (config_.async_refinement) {
    std::uint64_t my_rows = 0;
    for (BlockID b = 0; b < k; ++b) {
      if (store.owns_block(b)) my_rows += store.members(b).size();
    }
    use_async = pe_.all_reduce_sum(my_rows) >= kAsyncMinLevelNodes;
  }

  int no_change_streak = 0;
  for (int global = 0; global < options.max_global_iterations; ++global) {
    KAPPA_TRACE_SPAN("refine.iteration", static_cast<std::uint64_t>(global),
                     use_async ? 1 : 0);
    progress_iteration(static_cast<std::uint32_t>(global));
    // Quotient graph from all-gathered per-rank contributions — merged
    // identically on every PE, so both schedulers below start from the
    // same pair list in the same order.
    const QuotientGraph quotient = [&] {
      KAPPA_TRACE_SPAN("refine.quotient");
      return gather_quotient(store, partition, k, pe_);
    }();
    if (quotient.edges().empty()) break;  // every block is isolated

    EdgeWeight my_cut_gain = 0;
    NodeWeight my_imbalance_gain = 0;
    if (use_async) {
      run_async_iteration(store, partition, options, base_rng, quotient,
                          global, ship_depth, my_cut_gain, my_imbalance_gain);
    } else {
      run_color_classes(store, partition, options, base_rng, quotient, global,
                        ship_depth, my_cut_gain, my_imbalance_gain);
    }

    // Stop rule on the *global* iteration gains (modular arithmetic makes
    // the unsigned all-reduce exact for signed sums).
    const EdgeWeight cut_gain = static_cast<EdgeWeight>(
        pe_.all_reduce_sum(static_cast<std::uint64_t>(my_cut_gain)));
    const NodeWeight imbalance_gain = static_cast<NodeWeight>(
        pe_.all_reduce_sum(static_cast<std::uint64_t>(my_imbalance_gain)));
    if (cut_gain > 0 || imbalance_gain > 0) {
      no_change_streak = 0;
    } else if (++no_change_streak >= options.stop_no_change) {
      break;
    }
  }

  // Async polish: one color-class iteration on the now globally
  // consistent state. Mid-iteration the async scheduler works against
  // cached third-block entries that can lag by one invalidation hop, so
  // an occasional pair move is gain-misjudged; the polish re-runs every
  // pair with exact state and only improving moves apply, recovering
  // those moves at the cost of a single synchronized round (instead of
  // one per iteration, which is the barrier bill this scheduler kills).
  // All ranks leave the loop in the same iteration (the stop rule is
  // all-reduced), so the polish collectives stay aligned.
  if (use_async) {
    const QuotientGraph quotient = [&] {
      KAPPA_TRACE_SPAN("refine.quotient");
      return gather_quotient(store, partition, k, pe_);
    }();
    if (!quotient.edges().empty()) {
      EdgeWeight polish_cut_gain = 0;
      NodeWeight polish_imbalance_gain = 0;
      run_color_classes(store, partition, options, base_rng, quotient,
                        options.max_global_iterations, ship_depth,
                        polish_cut_gain, polish_imbalance_gain);
    }
  }
  partition_footprint_.merge_peak(partition.footprint());
}

namespace {

/// Old-owner half of one row migration: appends u's resident row in the
/// shared row codec (global ids) followed by the blocks of its targets —
/// the old owner has them for its own searches; the new owner needs them
/// for its next quotient construction and band filters — then applies the
/// move to the store, which tombstones the row.
void ship_departing_row(BlockRowShard& store, const DistPartition& partition,
                        NodeID u, BlockID from, BlockID to,
                        std::vector<std::uint64_t>& words) {
  const GraphRowView row = store.row_view(store.local_of(u));
  append_row_words(words, u, row,
                   [&](NodeID t) { return store.global_of(t); });
  for (const NodeID t : row.targets) {
    words.push_back(partition.block_of_local(t));
  }
  store.apply_move(u, from, to, nullptr);
}

/// New-owner half: decodes the row shipped by ship_departing_row() at
/// \p cursor into the store (its unknown targets get local ids), records
/// u's new block and hands each target's shipped block to \p learn.
template <typename Learn>
void take_incoming_row(BlockRowShard& store, DistPartition& partition,
                       NodeID u, BlockID from, BlockID to,
                       const std::vector<std::uint64_t>& words,
                       std::size_t& cursor, Learn&& learn) {
  GraphRow row;
  const NodeID id = decode_row_words(words, cursor, row);
  assert(id == u);
  (void)id;
  store.apply_move(u, from, to, &row);
  partition.learn(u, to);
  for (const NodeID t : row.targets) {
    learn(t, static_cast<BlockID>(words[cursor++]));
  }
}

}  // namespace

void SpmdRefiner::run_color_classes(BlockRowShard& store,
                                    DistPartition& partition,
                                    const PairwiseRefinerOptions& options,
                                    const Rng& base_rng,
                                    const QuotientGraph& quotient, int global,
                                    int ship_depth, EdgeWeight& my_cut_gain,
                                    NodeWeight& my_imbalance_gain) {
  const int p = pe_.size();
  const int rank = pe_.rank();
  const BlockID k = partition.k();

  // The schedule: an edge coloring of the quotient. Both variants draw
  // the identical coloring from the same forked stream — the in-refiner
  // §5.1 protocol (virtual block-PEs nested on the p ranks) fills in only
  // the colors of edges incident to locally hosted blocks, which is
  // exactly the executor/partner knowledge the loops below read, while
  // the replicated greedy twin colors everything on every rank.
  Rng color_rng = base_rng.fork(coloring_fork_tag(global));
  const EdgeColoring coloring =
      config_.dist_coloring
          ? distributed_color_quotient_edges(quotient, color_rng, pe_).coloring
          : color_quotient_edges(quotient, color_rng);

  for (int color = 0; color < coloring.num_colors; ++color) {
    KAPPA_TRACE_SPAN("refine.color_class", static_cast<std::uint64_t>(color));
    const std::vector<std::size_t> pairs = coloring.color_class(color);
    // No empty-class skip: with the partial in-refiner coloring a rank
    // may see none of a class's pairs but must still join the class's
    // delta collective below. (Full-coloring classes are never globally
    // empty — the greedy min-free rule uses every color below
    // num_colors.)
    bool participated = false;

    // A pair {a, b} is executed by the owner of block a; the owner of
    // block b ships its side of the pair — the §5.2 boundary band plus
    // fringe, not the whole block. All sends of the class are posted
    // before any receive; per-source FIFO delivery pairs them with the
    // executor's receives, which follow the same class order.
    for (const std::size_t j : pairs) {
      const QuotientEdge& edge = quotient.edges()[j];
      const int executor = BlockRowShard::owner_of_block(edge.a, p);
      const int partner_owner = BlockRowShard::owner_of_block(edge.b, p);
      if (partner_owner == rank && executor != rank) {
        KAPPA_TRACE_SPAN("pair.ship", edge.a, edge.b);
        const PairSide side =
            build_pair_side(store, partition, edge.a, edge.b, edge.b,
                            edge.boundary, ship_depth, pair_scratch_);
        std::vector<std::uint64_t> words = encode_pair_side(side, store);
        ship_stats_.pairs_shipped += 1;
        ship_stats_.rows_shipped += side.band.size() + side.fringe.size();
        ship_stats_.words_shipped += words.size();
        ship_stats_.whole_block_rows += store.members(edge.b).size();
        participated = true;
        pe_.send(executor, std::move(words));
      }
    }

    std::vector<std::uint64_t> delta_words;
    for (const std::size_t j : pairs) {
      const QuotientEdge& edge = quotient.edges()[j];
      if (BlockRowShard::owner_of_block(edge.a, p) != rank) continue;
      KAPPA_TRACE_SPAN("pair.execute", edge.a, edge.b);
      const int partner_owner = BlockRowShard::owner_of_block(edge.b, p);
      PairView view = [&] {
        KAPPA_TRACE_SPAN("pair.view", edge.a, edge.b);
        pair_scratch_.begin_pair(store);
        const PairSide side_a =
            build_pair_side(store, partition, edge.a, edge.b, edge.a,
                            edge.boundary, ship_depth, pair_scratch_);
        const PairSide side_b =
            partner_owner == rank
                ? build_pair_side(store, partition, edge.a, edge.b, edge.b,
                                  edge.boundary, ship_depth, pair_scratch_)
                : decode_pair_side(pe_.receive(partner_owner).payload,
                                   pair_scratch_);
        if (partner_owner != rank) {
          // The shipped partner band is this pair's transient intake.
          ShardFootprint with_intake = store.footprint();
          with_intake.ghost_nodes += side_b.band.size() + side_b.fringe.size();
          with_intake.arcs += side_b.adj.size();
          footprint_.merge_peak(with_intake);
        }
        return build_pair_view(side_a, side_b, partition.block_weight(edge.a),
                               partition.block_weight(edge.b), edge, k,
                               pair_scratch_);
      }();
      ship_stats_.pairs_executed += 1;
      progress_pair();
      participated = true;

      const PairRefineResult result = [&] {
        KAPPA_TRACE_SPAN("pair.fm", edge.a, edge.b);
        return refine_pair(view.graph, view.partition, edge.a, edge.b,
                           view.seeds, options, base_rng,
                           pair_seed_tag(global, j), /*collect_moves=*/true,
                           &view.movable);
      }();
      my_cut_gain += result.cut_gain;
      my_imbalance_gain += result.imbalance_gain;
      for (const auto& [vu, to] : result.moves) {
        delta_words.push_back(pack_pair(view.to_global[vu], to));
        delta_words.push_back(weight_bits(view.graph.node_weight(vu)));
        delta_words.push_back(view.entry[vu]);
      }
    }
    if (!participated) pe_.count_idle_round();

    // Moved-node delta exchange: deltas carry (node, to), weight and
    // the entry block, so every PE can apply the gathered moves to the
    // partition state it holds — owned entries, cached entries and the
    // replicated block weights — without any rank knowing the full
    // assignment. The volume is O(moves), never O(n_l).
    const auto gathered =
        // kappa-lint: allow(no-refinement-block-gathers, "O(moves) round deltas, never block ids")
        pe_.all_gather_vectors(std::move(delta_words));
    struct Migration {
      NodeID u;
      BlockID from;
      BlockID to;
    };
    std::vector<Migration> migrations;
    for (const auto& vec : gathered) {
      for (std::size_t i = 0; i + 2 < vec.size(); i += 3) {
        const auto [u, to_raw] = unpack_pair(vec[i]);
        const BlockID to = static_cast<BlockID>(to_raw);
        const NodeWeight w = bits_weight(vec[i + 1]);
        const BlockID from = static_cast<BlockID>(vec[i + 2]);
        if (from == to) continue;
        partition.apply_move(u, from, to, w);
        migrations.push_back({u, from, to});
      }
    }

    // Row migration with a schedule every rank derives from the same
    // gathered deltas: the old owner ships the full row plus the blocks
    // of its targets, the new owner appends the row to its store (or
    // un-tombstones a row it held before this level).
    std::vector<std::vector<std::uint64_t>> outbox(p);
    std::vector<int> expect_from(p, 0);
    for (const Migration& m : migrations) {
      const int old_owner = BlockRowShard::owner_of_block(m.from, p);
      const int new_owner = BlockRowShard::owner_of_block(m.to, p);
      if (old_owner == new_owner) {
        if (old_owner == rank) store.apply_move(m.u, m.from, m.to, nullptr);
        continue;
      }
      if (old_owner == rank) {
        ship_departing_row(store, partition, m.u, m.from, m.to,
                           outbox[new_owner]);
      } else if (new_owner == rank) {
        ++expect_from[old_owner];
      }
    }
    for (int q = 0; q < p; ++q) {
      if (q != rank && !outbox[q].empty()) pe_.send(q, std::move(outbox[q]));
    }
    std::vector<std::vector<std::uint64_t>> inbox(p);
    std::vector<std::size_t> cursor(p, 0);
    for (int q = 0; q < p; ++q) {
      if (expect_from[q] > 0) inbox[q] = pe_.receive(q).payload;
    }
    for (const Migration& m : migrations) {
      const int old_owner = BlockRowShard::owner_of_block(m.from, p);
      const int new_owner = BlockRowShard::owner_of_block(m.to, p);
      if (new_owner != rank || old_owner == rank || old_owner == new_owner) {
        continue;
      }
      take_incoming_row(store, partition, m.u, m.from, m.to,
                        inbox[old_owner], cursor[old_owner],
                        [&](NodeID t, BlockID b) { partition.learn(t, b); });
    }
    footprint_.merge_peak(store.footprint());
  }
}

// ----------------------------------------------- SPMD async refinement ----
//
// The barrier-free pair scheduler: rank 0 arbitrates per-block locks, a
// pair {a, b} is granted the moment both blocks are free, and everything
// a pair touches travels point-to-point — the partner side, the moved-node
// deltas, the migrating rows, and targeted cache invalidations to exactly
// the ranks that own or ghost-cache affected rows. No collective appears
// between the quotient construction and the iteration-end weight
// all-reduce (the CI guard greps this section for all_gather).
//
// Message flow per granted pair (executor E = owner of a, partner P =
// owner of b; P == E short-circuits everything locally):
//
//   arbiter -> E : GRANT(j)          arbiter -> P : SHIP(j)
//   P -> E : SIDE(j, weight_b, band)
//   E refines, applies, books both block weights, then
//   E -> P : MOVES(j, deltas, departing a-side rows)
//   E -> * : INVAL(u, to) for a-side movers' interest sets
//   P applies, books, takes the a-side rows, then
//   P -> * : INVAL for b-side movers      P -> E : ROWS(j, b-side rows)
//   E takes the b-side rows and E -> arbiter : DONE(j)
//
// Safety rests on three happens-before chains through the mailboxes:
// (1) pairs sharing a block are serialized by the arbiter (re-grant only
// after DONE), so each node's invalidation chain is causally ordered;
// (2) every INVAL is pushed before its pair's DONE is pushed, so when the
// arbiter has seen every DONE and broadcasts ITER_END, all INVALs already
// sit ahead of it in the FIFO mailboxes — the loop drains them before it
// exits; (3) a block's owner books its weight before the block can be
// re-granted, so the executor always refines with authoritative weights
// for both blocks. Everything else (third-party ghost caches, third-party
// weight copies) may go stale mid-iteration and is restored at the
// iteration seam: one O(k) owner-contribution weight all-reduce plus a
// ghost-cache refresh against the shard owners.

namespace {

/// Monotonic nanoseconds for the async lock-window events — the
/// sanctioned trace clock (the timestamps feed the async stats log and
/// the trace, never partition state).
std::uint64_t async_now_ns() { return trace_now_ns(); }

// First payload word of every async-scheduler message.
constexpr std::uint64_t kMsgGrant = 1;    ///< arbiter -> executor: [tag, j]
constexpr std::uint64_t kMsgShip = 2;     ///< arbiter -> partner: [tag, j]
constexpr std::uint64_t kMsgSide = 3;     ///< partner -> executor
constexpr std::uint64_t kMsgMoves = 4;    ///< executor -> partner
constexpr std::uint64_t kMsgRows = 5;     ///< partner -> executor (the ACK)
constexpr std::uint64_t kMsgInval = 6;    ///< targeted cache invalidations
constexpr std::uint64_t kMsgDone = 7;     ///< executor -> arbiter: [tag, j]
constexpr std::uint64_t kMsgIterEnd = 8;  ///< arbiter -> all: [tag]

/// One committed move of an async pair.
struct AsyncDelta {
  NodeID u = 0;
  BlockID from = 0;
  BlockID to = 0;
  NodeWeight w = 0;
};

}  // namespace

void SpmdRefiner::run_async_iteration(
    BlockRowShard& store, DistPartition& partition,
    const PairwiseRefinerOptions& options, const Rng& base_rng,
    const QuotientGraph& quotient, int global, int ship_depth,
    EdgeWeight& my_cut_gain, NodeWeight& my_imbalance_gain) {
  const int p = pe_.size();
  const int rank = pe_.rank();
  const BlockID k = partition.k();
  const std::vector<QuotientEdge>& edges = quotient.edges();
  const std::size_t num_pairs = edges.size();
  constexpr int kArbiter = 0;
  bool participated = false;

  // --- Arbiter state (rank 0 only): the owner-arbitrated block locks and
  // the ungranted pairs in quotient order. ---
  std::vector<char> busy(k, 0);
  std::vector<std::size_t> ungranted;
  std::size_t done_pairs = 0;
  auto grant_ready = [&]() {
    std::size_t w = 0;
    for (std::size_t r = 0; r < ungranted.size(); ++r) {
      const std::size_t j = ungranted[r];
      const QuotientEdge& e = edges[j];
      if (busy[e.a] != 0 || busy[e.b] != 0) {
        ungranted[w++] = ungranted[r];
        continue;
      }
      busy[e.a] = 1;
      busy[e.b] = 1;
      const int executor = BlockRowShard::owner_of_block(e.a, p);
      const int partner_owner = BlockRowShard::owner_of_block(e.b, p);
      // GRANT is pushed before SHIP, so the executor's FIFO mailbox
      // always delivers GRANT(j) ahead of the partner's SIDE(j).
      pe_.send(executor, {kMsgGrant, j});
      if (partner_owner != executor) pe_.send(partner_owner, {kMsgShip, j});
    }
    ungranted.resize(w);
    // Lock-table summary for kappa-watch stall reports: how many blocks
    // the arbiter currently holds locked, how many granted pairs are
    // still in flight, how many are done this iteration.
    std::uint64_t locked = 0;
    for (const char b : busy) locked += (b != 0) ? 1u : 0u;
    progress_aux(ProgressAux::kAsyncLocksHeld, locked);
    progress_aux(ProgressAux::kAsyncGrantsInFlight,
                 num_pairs - ungranted.size() - done_pairs);
    progress_aux(ProgressAux::kAsyncPairsDone, done_pairs);
  };
  if (rank == kArbiter) {
    ungranted.reserve(num_pairs);
    for (std::size_t j = 0; j < num_pairs; ++j) ungranted.push_back(j);
    grant_ready();
  }

  // Queues INVAL(u -> to) for every rank whose state can reference u —
  // u's shard owner (the authority the iteration-end refresh asks) and
  // the owners of the blocks of u's row targets (their resident rows have
  // u as a target, so their quotient contributions and band filters read
  // block(u)). The two ranks of the pair itself apply the full delta list
  // and are skipped. u's row must be resident here.
  auto queue_invals = [&](NodeID u, BlockID to, int skip,
                          std::vector<std::vector<std::uint64_t>>& outbox) {
    std::vector<int> interested;
    interested.push_back(partition.shard_owner(u));
    for (const NodeID t : store.row_view(store.local_of(u)).targets) {
      interested.push_back(
          BlockRowShard::owner_of_block(partition.block_of_local(t), p));
    }
    std::sort(interested.begin(), interested.end());
    interested.erase(std::unique(interested.begin(), interested.end()),
                     interested.end());
    for (const int q : interested) {
      if (q == rank || q == skip) continue;
      if (outbox[static_cast<std::size_t>(q)].empty()) {
        outbox[static_cast<std::size_t>(q)].push_back(kMsgInval);
      }
      outbox[static_cast<std::size_t>(q)].push_back(pack_pair(u, to));
    }
  };
  // Fill-if-unknown for the blocks shipped with a migrating row: the
  // shipped word may be staler than a block this rank already tracks
  // causally (u's own entry was just set from the delta list).
  auto fill_if_unknown = [&](NodeID t, BlockID bt) {
    if (!partition.knows(t)) partition.learn(t, bt);
  };
  auto flush_invals = [&](std::vector<std::vector<std::uint64_t>>& outbox) {
    for (int q = 0; q < p; ++q) {
      auto& words = outbox[static_cast<std::size_t>(q)];
      if (!words.empty()) pe_.send(q, std::move(words));
    }
  };

  // --- Executor-side in-flight pair state. ---
  struct InFlight {
    bool granted = false;
    bool side_ready = false;
    std::vector<std::uint64_t> side_b_words;  ///< decoded at execution
    NodeWeight weight_b = 0;
  };
  hash_map<std::size_t, InFlight> inflight;
  struct AwaitRows {
    std::vector<AsyncDelta> returning;  ///< this pair's b-side movers
    std::uint64_t begin_ns = 0;
  };
  hash_map<std::size_t, AwaitRows> awaiting;

  // Runs pair j once grant and partner side are in hand: refine on the
  // pair view, apply the deltas locally (entries plus both blocks' weight
  // accounts — authoritative for block a here), ship the moves with the
  // departing a-side rows, and queue the targeted invalidations. With a
  // remote partner, completion is deferred until its ROWS ACK.
  auto execute_pair = [&](std::size_t j, InFlight& run) {
    const QuotientEdge& edge = edges[j];
    const int partner_owner = BlockRowShard::owner_of_block(edge.b, p);
    const bool local_partner = partner_owner == rank;
    participated = true;
    const std::uint64_t begin_ns = async_now_ns();

    pair_scratch_.begin_pair(store);
    const PairSide side_a =
        build_pair_side(store, partition, edge.a, edge.b, edge.a,
                        edge.boundary, ship_depth, pair_scratch_);
    PairSide side_b;
    if (local_partner) {
      side_b = build_pair_side(store, partition, edge.a, edge.b, edge.b,
                               edge.boundary, ship_depth, pair_scratch_);
      run.weight_b = partition.block_weight(edge.b);
    } else {
      side_b = decode_pair_side(run.side_b_words, pair_scratch_);
      // The shipped partner band is this pair's transient intake.
      ShardFootprint with_intake = store.footprint();
      with_intake.ghost_nodes += side_b.band.size() + side_b.fringe.size();
      with_intake.arcs += side_b.adj.size();
      footprint_.merge_peak(with_intake);
    }
    PairView view =
        build_pair_view(side_a, side_b, partition.block_weight(edge.a),
                        run.weight_b, edge, k, pair_scratch_);
    ship_stats_.pairs_executed += 1;
    progress_pair();

    const PairRefineResult result = refine_pair(
        view.graph, view.partition, edge.a, edge.b, view.seeds, options,
        base_rng, pair_seed_tag(global, j), /*collect_moves=*/true,
        &view.movable);
    my_cut_gain += result.cut_gain;
    my_imbalance_gain += result.imbalance_gain;

    std::vector<AsyncDelta> deltas;
    for (const auto& [vu, to] : result.moves) {
      const BlockID from = view.entry[vu];
      if (from == static_cast<BlockID>(to)) continue;
      deltas.push_back({view.to_global[vu], from, static_cast<BlockID>(to),
                        view.graph.node_weight(vu)});
    }
    for (const AsyncDelta& d : deltas) {
      partition.update_entry(d.u, d.to);
      partition.adjust_block_weight(d.from, -d.w);
      partition.adjust_block_weight(d.to, d.w);
    }

    std::vector<std::vector<std::uint64_t>> inval(
        static_cast<std::size_t>(p));
    if (local_partner) {
      for (const AsyncDelta& d : deltas) {
        queue_invals(d.u, d.to, /*skip=*/-1, inval);
        store.apply_move(d.u, d.from, d.to, nullptr);
      }
      flush_invals(inval);
      footprint_.merge_peak(store.footprint());
      const std::uint64_t end_ns = async_now_ns();
      async_events_.push_back({edge.a, edge.b, begin_ns, end_ns});
      if (TraceRecorder* recorder = thread_trace()) {
        recorder->span("async.pair", begin_ns, end_ns, edge.a, edge.b);
      }
      pe_.send(kArbiter, {kMsgDone, j});
      return;
    }

    // MOVES carries the delta list followed by the departing a-side rows
    // (each with its targets' blocks, like the oracle's row migration).
    std::vector<std::uint64_t> moves{kMsgMoves, j, deltas.size()};
    AwaitRows wait;
    wait.begin_ns = begin_ns;
    for (const AsyncDelta& d : deltas) {
      moves.push_back(pack_pair(d.u, d.to));
      moves.push_back(weight_bits(d.w));
      moves.push_back(d.from);
    }
    for (const AsyncDelta& d : deltas) {
      if (d.from != edge.a) {
        wait.returning.push_back(d);
        continue;
      }
      queue_invals(d.u, d.to, partner_owner, inval);
      ship_departing_row(store, partition, d.u, d.from, d.to, moves);
    }
    // INVALs before MOVES: the partner's ROWS (and with it this pair's
    // DONE) can only follow, which is what keeps every INVAL ahead of
    // ITER_END in its destination mailbox.
    flush_invals(inval);
    pe_.send(partner_owner, std::move(moves));
    awaiting.emplace(j, std::move(wait));
  };

  // Partner side of MOVES: apply the executor's deltas (entries plus both
  // weight accounts — authoritative for block b here), take over the
  // a-side rows, then invalidate for the departing b-side movers and ship
  // their rows back as the completion ACK.
  auto handle_moves = [&](const Message& msg) {
    std::size_t cursor = 1;
    const std::size_t j = msg.payload[cursor++];
    const QuotientEdge& edge = edges[j];
    KAPPA_TRACE_SPAN("async.moves", edge.a, edge.b);
    const int executor = BlockRowShard::owner_of_block(edge.a, p);
    const std::size_t num_deltas = msg.payload[cursor++];
    std::vector<AsyncDelta> deltas(num_deltas);
    for (AsyncDelta& d : deltas) {
      const auto [u, to] = unpack_pair(msg.payload[cursor++]);
      d.u = static_cast<NodeID>(u);
      d.to = static_cast<BlockID>(to);
      d.w = bits_weight(msg.payload[cursor++]);
      d.from = static_cast<BlockID>(msg.payload[cursor++]);
    }
    for (const AsyncDelta& d : deltas) {
      partition.update_entry(d.u, d.to);
      partition.adjust_block_weight(d.from, -d.w);
      partition.adjust_block_weight(d.to, d.w);
    }
    for (const AsyncDelta& d : deltas) {
      if (d.from != edge.a) continue;
      take_incoming_row(store, partition, d.u, d.from, d.to, msg.payload,
                        cursor, fill_if_unknown);
    }
    std::vector<std::vector<std::uint64_t>> inval(
        static_cast<std::size_t>(p));
    std::vector<std::uint64_t> rows{kMsgRows, j};
    for (const AsyncDelta& d : deltas) {
      if (d.from != edge.b) continue;
      queue_invals(d.u, d.to, executor, inval);
      ship_departing_row(store, partition, d.u, d.from, d.to, rows);
    }
    flush_invals(inval);  // before the ACK — see the ordering note above
    pe_.send(executor, std::move(rows));
    footprint_.merge_peak(store.footprint());
  };

  // Executor side of ROWS: take over the returning b-side rows, then
  // report the pair done.
  auto handle_rows = [&](const Message& msg) {
    std::size_t cursor = 1;
    const std::size_t j = msg.payload[cursor++];
    const QuotientEdge& edge = edges[j];
    AwaitRows wait = std::move(awaiting.at(j));
    awaiting.erase(j);
    for (const AsyncDelta& d : wait.returning) {
      take_incoming_row(store, partition, d.u, d.from, d.to, msg.payload,
                        cursor, fill_if_unknown);
    }
    footprint_.merge_peak(store.footprint());
    const std::uint64_t end_ns = async_now_ns();
    async_events_.push_back({edge.a, edge.b, wait.begin_ns, end_ns});
    if (TraceRecorder* recorder = thread_trace()) {
      recorder->span("async.pair", wait.begin_ns, end_ns, edge.a, edge.b);
    }
    pe_.send(kArbiter, {kMsgDone, j});
  };

  // --- The event loop: blocking any-source receives, dispatch on the
  // tag. The arbiter exits once every pair reported DONE (its mailbox is
  // provably drained at that point); everyone else exits on ITER_END,
  // behind which no INVAL can hide. ---
  bool iter_done = num_pairs == 0;  // caller guards this; exit everywhere
  while (!iter_done) {
    const Message msg = pe_.receive(-1);
    switch (msg.payload[0]) {
      case kMsgGrant: {
        const std::size_t j = msg.payload[1];
        KAPPA_TRACE_INSTANT("async.grant", j);
        InFlight& run = inflight[j];
        run.granted = true;
        const bool local_partner =
            BlockRowShard::owner_of_block(edges[j].b, p) == rank;
        if (local_partner || run.side_ready) {
          execute_pair(j, run);
          inflight.erase(j);
        }
        break;
      }
      case kMsgShip: {
        const std::size_t j = msg.payload[1];
        const QuotientEdge& edge = edges[j];
        KAPPA_TRACE_SPAN("async.ship", edge.a, edge.b);
        const int executor = BlockRowShard::owner_of_block(edge.a, p);
        const PairSide side =
            build_pair_side(store, partition, edge.a, edge.b, edge.b,
                            edge.boundary, ship_depth, pair_scratch_);
        std::vector<std::uint64_t> words{
            kMsgSide, j, weight_bits(partition.block_weight(edge.b))};
        const std::vector<std::uint64_t> body = encode_pair_side(side, store);
        words.insert(words.end(), body.begin(), body.end());
        ship_stats_.pairs_shipped += 1;
        ship_stats_.rows_shipped += side.band.size() + side.fringe.size();
        ship_stats_.words_shipped += words.size();
        ship_stats_.whole_block_rows += store.members(edge.b).size();
        participated = true;
        pe_.send(executor, std::move(words));
        break;
      }
      case kMsgSide: {
        const std::size_t j = msg.payload[1];
        InFlight& run = inflight[j];
        run.weight_b = bits_weight(msg.payload[2]);
        run.side_b_words.assign(msg.payload.begin() + 3, msg.payload.end());
        run.side_ready = true;
        if (run.granted) {
          execute_pair(j, run);
          inflight.erase(j);
        }
        break;
      }
      case kMsgMoves:
        handle_moves(msg);
        break;
      case kMsgRows:
        handle_rows(msg);
        break;
      case kMsgInval:
        for (std::size_t i = 1; i < msg.payload.size(); ++i) {
          const auto [u, to] = unpack_pair(msg.payload[i]);
          partition.update_entry(static_cast<NodeID>(u),
                                 static_cast<BlockID>(to));
        }
        break;
      case kMsgDone: {
        assert(rank == kArbiter);
        const std::size_t j = msg.payload[1];
        busy[edges[j].a] = 0;
        busy[edges[j].b] = 0;
        ++done_pairs;
        grant_ready();
        if (done_pairs == num_pairs) {
          for (int q = 0; q < p; ++q) {
            if (q != rank) pe_.send(q, {kMsgIterEnd});
          }
          iter_done = true;
        }
        break;
      }
      case kMsgIterEnd:
        iter_done = true;
        break;
    }
  }
  assert(inflight.empty() && awaiting.empty() && ungranted.empty());
  if (rank == kArbiter) {
    progress_aux(ProgressAux::kAsyncLocksHeld, 0);
    progress_aux(ProgressAux::kAsyncGrantsInFlight, 0);
  }
  if (!participated && num_pairs > 0) pe_.count_idle_round();

  // --- Iteration seam: restore global consistency. Authoritative O(k)
  // block weights from the owners' member lists (every move is booked at
  // both owners before ITER_END, so the member lists are final), then a
  // ghost-cache refresh against the shard owners — whose entries are
  // exact because every mover's interest set includes its shard owner and
  // all INVALs drained before the loop exited. ---
  std::vector<std::uint64_t> partial(k, 0);
  for (BlockID b = 0; b < k; ++b) {
    if (!store.owns_block(b)) continue;
    for (const NodeID u : store.members(b)) {
      partial[b] += static_cast<std::uint64_t>(store.row_view(u).weight);
    }
  }
  const std::vector<std::uint64_t> sums =
      pe_.all_reduce_sum_vec(std::move(partial));
  std::vector<NodeWeight> weights;
  weights.reserve(k);
  for (const std::uint64_t w : sums) {
    weights.push_back(static_cast<NodeWeight>(w));
  }
  partition.set_block_weights(std::move(weights));

  partition.refresh(pe_);
}

// ------------------------------------------- end SPMD async refinement ----

void SpmdRefiner::rebalance(DistPartition& partition) {
  assert(finest_store_.has_value() &&
         "refine(level 0) must run before rebalance");
  // The insurance loop (§5.2 exception rule): should the finest level
  // still be overloaded, run additional MaxLoad-driven iterations with
  // escalating band depth through the same distributed color-class
  // machinery — on the retained finest-level store, never on a replica.
  // The Lmax check reads the replicated O(k) block weights only. Mirrors
  // rebalance_until_feasible() in loop shape and RNG forks.
  for (int attempt = 0;
       attempt < kMaxRebalanceAttempts &&
       partition.max_block_weight() > global_bound_;
       ++attempt) {
    PairwiseRefinerOptions options =
        rebalance_options(config_, finest_, global_bound_, attempt);
    options.num_threads = 1;
    run_pairwise(*finest_store_, partition, options, rng_.fork(100 + attempt));
  }
}

MigrationIntake SpmdRefiner::migration_intake() const {
  assert(warm_ != nullptr && "migration accounting needs the warm input");
  assert(finest_store_.has_value());
  const BlockRowShard& store = *finest_store_;
  const BlockID k = warm_->k();

  // The store was maintained incrementally by the moved-node deltas and
  // row migrations of refine/rebalance, so at this point it holds exactly
  // the rows of the nodes in this rank's final blocks — the population of
  // the §5.2 migration view, with block membership read off the member
  // lists themselves (a member of block b is in block b; no partition
  // replica is consulted). Seal the view: kept nodes (same block as the
  // warm input) form the static core, everything else is a migrated-in
  // node in the overlay's hash-addressed secondary edge array.
  // Residents as (global id, local id), in global id order.
  std::vector<std::pair<NodeID, NodeID>> residents;
  std::vector<BlockID> resident_block(store.num_local(), kInvalidBlock);
  for (BlockID b = 0; b < k; ++b) {
    if (!store.owns_block(b)) continue;
    for (const NodeID u : store.members(b)) {
      residents.emplace_back(store.global_of(u), u);
      resident_block[u] = b;
    }
  }
  std::sort(residents.begin(), residents.end());

  std::vector<NodeID> kept;      // global ids
  std::vector<NodeID> incoming;  // local ids
  std::vector<NodeID> kept_index(store.num_local(), kInvalidNode);
  for (const auto& [global, local] : residents) {
    if (resident_block[local] == warm_->block(global)) {
      kept_index[local] = static_cast<NodeID>(kept.size());
      kept.push_back(global);
    } else {
      incoming.push_back(local);
    }
  }

  // Static core: the subgraph induced by the kept nodes, assembled from
  // resident rows.
  std::vector<EdgeID> xadj;
  xadj.reserve(kept.size() + 1);
  xadj.push_back(0);
  std::vector<NodeID> adj;
  std::vector<EdgeWeight> ewgt;
  std::vector<NodeWeight> vwgt;
  vwgt.reserve(kept.size());
  for (const auto& [global, local] : residents) {
    if (kept_index[local] == kInvalidNode) continue;
    const GraphRowView row = store.row_view(local);
    vwgt.push_back(row.weight);
    for (std::size_t i = 0; i < row.targets.size(); ++i) {
      if (kept_index[row.targets[i]] == kInvalidNode) continue;
      adj.push_back(kept_index[row.targets[i]]);
      ewgt.push_back(row.weights[i]);
    }
    xadj.push_back(adj.size());
  }
  const StaticGraph core(std::move(xadj), std::move(adj), std::move(ewgt),
                         std::move(vwgt));

  DynamicOverlay view(core, kept);
  for (const NodeID u : incoming) {
    view.add_migrated_node(store.global_of(u), store.row_view(u).weight);
  }
  for (const NodeID u : incoming) {
    const GraphRowView row = store.row_view(u);
    for (std::size_t i = 0; i < row.targets.size(); ++i) {
      const NodeID t = store.global_of(row.targets[i]);
      if (view.contains(t)) {
        view.add_migrated_edge(store.global_of(u), t, row.weights[i]);
      }
    }
  }
  return {static_cast<NodeID>(view.num_migrated()), view.num_overlay_edges()};
}

// ------------------------------------------------------------ SPMD driver ----

PartitionResult run_multilevel_spmd(const StaticGraph& graph,
                                    const Config& config,
                                    SpmdCoarsener& coarsener,
                                    InitialPartitioner& initial,
                                    SpmdRefiner& refiner) {
  Timer total_timer;
  PartitionResult result;

  // --- Phase 1: contraction into the distributed hierarchy store (§3). ---
  Timer phase_timer;
  progress_phase(ProgressPhase::kCoarsen);
  DistHierarchy hierarchy = [&] {
    KAPPA_TRACE_SPAN("phase.coarsen");
    return coarsener.coarsen(graph);
  }();
  result.coarsening_time = phase_timer.elapsed_s();
  result.hierarchy_levels = hierarchy.num_levels();
  result.coarsest_nodes = hierarchy.level_nodes(hierarchy.num_levels() - 1);
  result.hierarchy_level_nodes.reserve(hierarchy.num_levels());
  for (std::size_t l = 0; l < hierarchy.num_levels(); ++l) {
    result.hierarchy_level_nodes.push_back(hierarchy.level_nodes(l));
  }

  // --- Phase 2: initial partitioning on the once-gathered coarsest (§4). ---
  phase_timer.restart();
  progress_phase(ProgressPhase::kInitial);
  Partition coarsest_partition = [&] {
    KAPPA_TRACE_SPAN("phase.initial");
    initial.observe_hierarchy(hierarchy);
    return initial.partition(hierarchy.coarsest());
  }();
  result.initial_time = phase_timer.elapsed_s();

  // --- Phase 3: uncoarsening with pairwise refinement (§5). The partition
  // state is sharded end to end: seeded at the coarsest level, projected
  // shard-locally through the contraction maps, refined on band-limited
  // views, and materialized exactly once for the result. ---
  phase_timer.restart();
  progress_phase(ProgressPhase::kRefine);
  DistPartition partition = [&] {
    KAPPA_TRACE_SPAN("phase.refine");
    DistPartition refined = hierarchy.lift(coarsest_partition);
    for (std::size_t level = hierarchy.num_levels(); level-- > 0;) {
      KAPPA_TRACE_SPAN("refine.level", level);
      progress_level(static_cast<std::uint32_t>(level));
      if (level + 1 < hierarchy.num_levels()) {
        KAPPA_TRACE_SPAN("refine.project");
        refined = hierarchy.project(level, refined);
      }
      refiner.refine(hierarchy, level, refined);
    }
    {
      KAPPA_TRACE_SPAN("phase.rebalance");
      progress_phase(ProgressPhase::kRebalance);
      refiner.rebalance(refined);
    }
    return refined;
  }();
  result.refinement_time = phase_timer.elapsed_s();

  progress_phase(ProgressPhase::kMaterialize);
  Partition final_partition = [&] {
    KAPPA_TRACE_SPAN("phase.materialize");
    return hierarchy.materialize(partition);
  }();
  result.cut = edge_cut(graph, final_partition);
  result.balance = balance(graph, final_partition);
  result.balanced = is_balanced(graph, final_partition, config.eps);
  result.partition = std::move(final_partition);
  result.total_time = total_timer.elapsed_s();
  progress_phase(ProgressPhase::kDone);
  return result;
}

}  // namespace kappa
