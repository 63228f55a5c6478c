#include "parallel/spmd_phases.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <numeric>
#include <tuple>

#include "graph/dynamic_overlay.hpp"
#include "graph/metrics.hpp"
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

QuotientGraph gather_quotient(BlockRowShard& store,
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
    // The same scan rebuilds bu's boundary candidates: its rows with a
    // foreign target.
    std::vector<NodeID> candidates;
    for (const NodeID lu : store.members(bu)) {
      const NodeID u = store.global_of(lu);
      const GraphRowView row = store.row_view(lu);
      for (std::size_t pos = 0; pos < row.targets.size(); ++pos) {
        const BlockID bv = partition.block_of_local(row.targets[pos]);
        if (bv == bu) continue;
        if (candidates.empty() || candidates.back() != lu) {
          candidates.push_back(lu);
        }
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
    store.set_candidates(bu, std::move(candidates));
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
  // §5.2 band shipping: the partner owner ships only the boundary band of
  // its block (bounded BFS at the pass's band depth, escalated by the
  // rebalance insurance, plus a one-hop fringe of frozen context nodes),
  // and the pair search is confined to the shipped band.
  const int ship_depth = options.bfs_depth;

  int no_change_streak = 0;
  for (int global = 0; global < options.max_global_iterations; ++global) {
    KAPPA_TRACE_SPAN("refine.iteration", static_cast<std::uint64_t>(global));
    progress_iteration(static_cast<std::uint32_t>(global));
    // Quotient graph from all-gathered per-rank contributions — merged
    // identically on every PE, so every rank colors the same pair list in
    // the same order.
    const QuotientGraph quotient = [&] {
      KAPPA_TRACE_SPAN("refine.quotient");
      return gather_quotient(store, partition, k, pe_);
    }();
    if (quotient.edges().empty()) break;  // every block is isolated

    EdgeWeight my_cut_gain = 0;
    NodeWeight my_imbalance_gain = 0;
    run_color_classes(store, partition, options, base_rng, quotient, global,
                      ship_depth, my_cut_gain, my_imbalance_gain);

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
/// \p cursor into the store (its unknown targets get local ids) and
/// records the blocks of u and of each of its targets.
void take_incoming_row(BlockRowShard& store, DistPartition& partition,
                       NodeID u, BlockID from, BlockID to,
                       const std::vector<std::uint64_t>& words,
                       std::size_t& cursor) {
  GraphRow row;
  const NodeID id = decode_row_words(words, cursor, row);
  assert(id == u);
  (void)id;
  store.apply_move(u, from, to, &row);
  partition.learn(u, to);
  for (const NodeID t : row.targets) {
    partition.learn(t, static_cast<BlockID>(words[cursor++]));
  }
}

}  // namespace

std::vector<int> assign_pair_executors(const QuotientGraph& quotient,
                                       const std::vector<std::size_t>& pairs,
                                       int num_pes) {
  const auto cost = [&](std::size_t i) {
    return quotient.edges()[pairs[i]].boundary.size() + 1;
  };
  // Longest processing time first: by cost descending, ties in class
  // (= edge index) order.
  std::vector<std::size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return cost(x) > cost(y);
                   });
  std::vector<int> lpt(pairs.size());
  std::vector<int> owner_a(pairs.size());
  std::vector<std::size_t> load(num_pes, 0);
  std::vector<std::size_t> load_a(num_pes, 0);
  for (const std::size_t i : order) {
    const QuotientEdge& edge = quotient.edges()[pairs[i]];
    const int ra = BlockRowShard::owner_of_block(edge.a, num_pes);
    const int rb = BlockRowShard::owner_of_block(edge.b, num_pes);
    lpt[i] = load[rb] < load[ra] ? rb : ra;
    load[lpt[i]] += cost(i);
    owner_a[i] = ra;
    load_a[ra] += cost(i);
  }
  // The greedy can lose to the plain owner-of-a map (a pair moved onto a
  // rank that later pairs have no choice but to join); keep the better.
  const auto busiest = [](const std::vector<std::size_t>& l) {
    return *std::max_element(l.begin(), l.end());
  };
  return busiest(load) <= busiest(load_a) ? lpt : owner_a;
}

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

  // The schedule: an edge coloring of the quotient. The quotient is
  // replicated, so every rank draws the identical coloring locally — the
  // one the §5.1 protocol (parallel/dist_coloring.hpp) would compute from
  // the same stream, without its per-round all-reduce and exchanges.
  const EdgeColoring coloring = [&] {
    KAPPA_TRACE_SPAN("refine.coloring");
    return color_quotient_edges(quotient,
                                base_rng.fork(coloring_fork_tag(global)));
  }();

  for (int color = 0; color < coloring.num_colors; ++color) {
    KAPPA_TRACE_SPAN("refine.color_class", static_cast<std::uint64_t>(color));
    const std::vector<std::size_t> pairs = coloring.color_class(color);
    const std::vector<int> executors =
        assign_pair_executors(quotient, pairs, p);
    bool participated = false;

    // A pair {a, b} is executed by one of its two block owners, as
    // assigned above; the other owner ships its side of the pair — the
    // §5.2 boundary band plus fringe, not the whole block. All sends of
    // the class are posted before any receive; per-source FIFO delivery
    // pairs them with the executors' receives, which follow the same
    // class order.
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (executors[i] == rank) continue;
      const QuotientEdge& edge = quotient.edges()[pairs[i]];
      for (const BlockID side : {edge.a, edge.b}) {
        if (!store.owns_block(side)) continue;
        KAPPA_TRACE_SPAN("pair.ship", edge.a, edge.b);
        const PairSide shipped = build_pair_side(
            store, partition, edge.a, edge.b, side, store.candidates(side),
            edge.boundary, ship_depth, pair_scratch_);
        std::vector<std::uint64_t> words = encode_pair_side(shipped, store);
        ship_stats_.pairs_shipped += 1;
        ship_stats_.rows_shipped += shipped.band.size() + shipped.fringe.size();
        ship_stats_.words_shipped += words.size();
        ship_stats_.whole_block_rows += store.members(side).size();
        participated = true;
        pe_.send(executors[i], std::move(words));
      }
    }

    std::vector<std::uint64_t> delta_words;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (executors[i] != rank) continue;
      const std::size_t j = pairs[i];
      const QuotientEdge& edge = quotient.edges()[j];
      KAPPA_TRACE_SPAN("pair.execute", edge.a, edge.b);
      PairView view = [&] {
        KAPPA_TRACE_SPAN("pair.view", edge.a, edge.b);
        pair_scratch_.begin_pair(store);
        // The executor builds the sides it owns and decodes the other.
        // The view is ordered by global id, so it does not depend on
        // which owner executes.
        const auto side_of = [&](BlockID side) {
          if (store.owns_block(side)) {
            return build_pair_side(store, partition, edge.a, edge.b, side,
                                   store.candidates(side), edge.boundary,
                                   ship_depth, pair_scratch_);
          }
          PairSide shipped = decode_pair_side(
              pe_.receive(BlockRowShard::owner_of_block(side, p)).payload,
              pair_scratch_);
          // The shipped partner band is this pair's transient intake.
          ShardFootprint with_intake = store.footprint();
          with_intake.ghost_nodes +=
              shipped.band.size() + shipped.fringe.size();
          with_intake.arcs += shipped.adj.size();
          footprint_.merge_peak(with_intake);
          return shipped;
        };
        const PairSide side_a = side_of(edge.a);
        const PairSide side_b = side_of(edge.b);
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
                        inbox[old_owner], cursor[old_owner]);
    }
    footprint_.merge_peak(store.footprint());
  }
}

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
