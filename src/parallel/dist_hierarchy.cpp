/// \file dist_hierarchy.cpp
/// \brief Shard-owned contraction with halo exchange (see dist_hierarchy.hpp).
///
/// Communication discipline of the coarsening loop: point-to-point
/// messages travel only between halo peers, and the only collectives are
/// scalar all-reduces/all-gathers (stop rules, per-shard coarse counts).
/// No contraction map and no level graph is ever gathered; the tagged
/// all_gather_vectors calls below belong to the one-time coarsest gather
/// (uncoarsening projection is shard-local through the sharded partition
/// state, parallel/dist_partition.hpp), which the CI guard checks by tag.
#include "parallel/dist_hierarchy.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "coarsening/prepartition.hpp"
#include "graph/subgraph.hpp"
#include "matching/tentative_match.hpp"
#include "parallel/dist_partition.hpp"
#include "parallel/wire_format.hpp"
#include "util/seeded_hash.hpp"
#include "util/trace.hpp"

namespace kappa {

namespace {

/// Reassembles a full per-node value vector from the all-gathered
/// per-rank owned contributions (each in ascending global-id order). The
/// finest level merges in one O(n + p) scan with a read cursor per rank;
/// coarse levels walk their O(num_shards) contiguous ranges.
std::vector<BlockID> reassemble_owned(
    const DistLevel& level, int p,
    const std::vector<std::vector<std::uint64_t>>& gathered) {
  std::vector<BlockID> values(level.global_n, 0);
  if (!level.node_to_shard.empty()) {
    std::vector<std::size_t> cursor(p, 0);
    for (NodeID u = 0; u < level.global_n; ++u) {
      const int q = DistLevel::owner_of_shard(level.node_to_shard[u], p);
      values[u] = static_cast<BlockID>(gathered[q][cursor[q]++]);
    }
    return values;
  }
  for (int q = 0; q < p; ++q) {
    std::size_t idx = 0;
    level.for_each_owned_of_rank(q, p, [&](NodeID u) {
      values[u] = static_cast<BlockID>(gathered[q][idx++]);
    });
  }
  return values;
}

}  // namespace

// ------------------------------------------------------------- DistLevel ----

BlockID DistLevel::shard_of(NodeID global) const {
  if (!node_to_shard.empty()) return node_to_shard[global];
  assert(!shard_begin.empty());
  const auto it =
      std::upper_bound(shard_begin.begin(), shard_begin.end(), global);
  return static_cast<BlockID>(it - shard_begin.begin()) - 1;
}

void DistLevel::build_send_lists(int num_pes) {
  const StaticGraph& csr = shard.csr();
  const NodeID num_owned = shard.num_owned();
  std::vector<int> ghost_owner;
  ghost_owner.reserve(shard.num_ghost());
  for (NodeID g = num_owned; g < shard.num_local(); ++g) {
    ghost_owner.push_back(owner_of_node(shard.global_of(g), num_pes));
  }
  peer.assign(num_pes, 0);
  send_begin.assign(1, 0);
  send_to.clear();
  for (NodeID u = 0; u < num_owned; ++u) {
    const auto first = static_cast<std::ptrdiff_t>(send_begin.back());
    for (EdgeID e = csr.first_arc(u); e < csr.last_arc(u); ++e) {
      const NodeID t = csr.arc_target(e);
      if (shard.is_owned(t)) continue;
      const int q = ghost_owner[t - num_owned];
      if (std::find(send_to.begin() + first, send_to.end(), q) ==
          send_to.end()) {
        send_to.push_back(q);
        peer[q] = 1;
      }
    }
    send_begin.push_back(send_to.size());
  }
}

// --------------------------------------------------------- DistHierarchy ----

DistHierarchy::DistHierarchy(const StaticGraph& finest,
                             const CoarseningOptions& options, const Rng& rng,
                             PEContext& pe, SpmdCoarseningStats* stats)
    : finest_(&finest),
      pe_(pe),
      warm_(options.warm_start != nullptr),
      stats_(stats),
      rng_(rng) {
  const MatchingOptions match_options = hierarchy_match_options(finest, options);

  // Every loop decision below depends on replicated scalars only, so all
  // PEs run the same number of levels (and hence the same exchanges).
  pe_.set_halo_level(0);
  {
    KAPPA_TRACE_SPAN("coarsen.finest");
    levels_.push_back(build_finest_level(options));
  }
  pe_.set_halo_level(-1);
  account_level(levels_.back());

  std::size_t level = 0;
  while (levels_.back().global_n > options.contraction_limit) {
    DistLevel& current = levels_.back();
    KAPPA_TRACE_SPAN("coarsen.level", static_cast<std::uint64_t>(level),
                     current.global_n);
    pe_.set_halo_level(static_cast<int>(level));
    const Rng level_rng = rng_.fork(level);

    MatchingOptions level_options = match_options;
    if (warm_) level_options.blocks = &current.warm_blocks;
    const std::vector<NodeID> partner = [&] {
      KAPPA_TRACE_SPAN("coarsen.match");
      return match_level(current, level_options, options.matcher, level_rng);
    }();

    // Stop rules on replicated scalars: the global pair count (each pair
    // counted by the owner of its canonical endpoint) and the shrink.
    std::uint64_t my_pairs = 0;
    for (NodeID lu = 0; lu < current.shard.num_owned(); ++lu) {
      const NodeID lv = partner[lu];
      if (lv != lu &&
          current.shard.global_of(lv) > current.shard.global_of(lu)) {
        ++my_pairs;
      }
    }
    const NodeID pairs = static_cast<NodeID>(pe_.all_reduce_sum(my_pairs));
    if (pairs == 0) {
      pe_.set_halo_level(-1);
      break;  // nothing contractible is left
    }
    const double shrink =
        static_cast<double>(pairs) / static_cast<double>(current.global_n);

    DistLevel next = [&] {
      KAPPA_TRACE_SPAN("coarsen.contract");
      return contract_level(current, partner);
    }();
    pe_.set_halo_level(-1);
    levels_.push_back(std::move(next));
    account_level(levels_.back());
    ++level;
    if (shrink < options.min_shrink_factor) break;
  }
}

void DistHierarchy::account_level(const DistLevel& level) {
  if (stats_ == nullptr) return;
  const ShardFootprint fp = level.footprint();
  stats_->footprint.merge_peak(fp);
  // Every level stays resident: the store's size is the sum, not the peak.
  add_counters(stats_->hierarchy_resident, fp);
}

DistLevel DistHierarchy::build_finest_level(const CoarseningOptions& options) {
  const int p = pe_.size();
  const int rank = pe_.rank();
  const StaticGraph& g = *finest_;

  DistLevel level;
  level.global_n = g.num_nodes();
  level.max_node_weight = g.max_node_weight();
  level.num_shards = std::max<BlockID>(options.matching_pes, 1);

  // The input graph is the one level that is resident everywhere, so the
  // prepartition may read it (geometric when coordinates exist, node
  // numbering otherwise, §3.3); the resulting ownership map is the finest
  // level's replicated metadata. Only this rank's shards get node lists
  // and cross arcs: shard s is the (s / p)-th shard of rank s mod p.
  level.node_to_shard = prepartition(g, level.num_shards);
  for (BlockID s = static_cast<BlockID>(rank); s < level.num_shards;
       s += static_cast<BlockID>(p)) {
    level.my_shard_ids.push_back(s);
  }
  level.my_shards.resize(level.my_shard_ids.size());
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    const BlockID s = level.node_to_shard[u];
    if (DistLevel::owner_of_shard(s, p) != rank) continue;
    GraphShard& shard = level.my_shards[s / static_cast<BlockID>(p)];
    shard.nodes.push_back(u);
    for (EdgeID e = g.first_arc(u); e < g.last_arc(u); ++e) {
      const NodeID v = g.arc_target(e);
      if (level.node_to_shard[v] != s) {
        shard.cross_arcs.push_back({u, v, g.arc_weight(e)});
      }
    }
  }
  level.shard = ShardGraph(g, level.my_shards);
  seal_halo(level, /*with_warm=*/false);

  if (warm_) {
    const std::vector<BlockID>& assignment = options.warm_start->assignment();
    level.warm_blocks.reserve(level.shard.num_local());
    for (NodeID l = 0; l < level.shard.num_local(); ++l) {
      level.warm_blocks.push_back(assignment[level.shard.global_of(l)]);
    }
  }
  return level;
}

void DistHierarchy::seal_halo(DistLevel& level, bool with_warm) {
  level.build_send_lists(pe_.size());
  const StaticGraph& csr = level.shard.csr();
  if (with_warm) level.warm_blocks.resize(level.shard.num_local(), 0);
  level.exchange_halo(
      pe_, with_warm ? 4 : 3,
      [&](NodeID u, std::vector<std::uint64_t>& entry) {
        entry.push_back(weight_bits(csr.node_weight(u)));
        entry.push_back(weight_bits(level.shard.weighted_degrees()[u]));
        if (with_warm) entry.push_back(level.warm_blocks[u]);
        return true;
      },
      [&](NodeID ghost, const std::uint64_t* entry) {
        level.shard.set_ghost(ghost, bits_weight(entry[1]),
                              bits_weight(entry[2]));
        if (with_warm) level.warm_blocks[ghost] = static_cast<BlockID>(entry[3]);
      });
}

std::vector<std::uint64_t> DistHierarchy::gather_per_shard(
    BlockID num_shards, const std::vector<std::uint64_t>& mine) const {
  const int p = pe_.size();
  const int rank = pe_.rank();
  std::vector<std::uint64_t> all(num_shards, 0);
  const BlockID rounds =
      (num_shards + static_cast<BlockID>(p) - 1) / static_cast<BlockID>(p);
  for (BlockID t = 0; t < rounds; ++t) {
    // Shard t*p + q is the t-th shard of rank q, so one scalar all-gather
    // delivers one full stripe of shard values.
    const BlockID sid = t * static_cast<BlockID>(p) + static_cast<BlockID>(rank);
    const std::uint64_t value =
        (sid < num_shards && t < mine.size()) ? mine[t] : 0;
    const std::vector<std::uint64_t> stripe = pe_.all_gather(value);
    for (int q = 0; q < p; ++q) {
      const BlockID s = t * static_cast<BlockID>(p) + static_cast<BlockID>(q);
      if (s < num_shards) all[s] = stripe[q];
    }
  }
  return all;
}

// ----------------------------------------------------------- matching ----

std::vector<NodeID> DistHierarchy::match_level(
    const DistLevel& level, const MatchingOptions& options, MatcherAlgo matcher,
    const Rng& level_rng) {
  const int p = pe_.size();
  const int rank = pe_.rank();
  const StaticGraph& resident = level.shard.csr();
  const NodeID num_owned = level.shard.num_owned();
  const NodeID num_local = level.shard.num_local();

  // --- Phase 1: sequential matching per owned shard (§3.3), on shard
  // subgraphs cut out of the resident CSR. Local ids ascend with global
  // ids, so the induced shard graphs — and with them the matcher
  // streams — are identical for every p. ---
  std::vector<NodeID> partner(num_local);  // local ids; ghosts stay unmatched
  std::iota(partner.begin(), partner.end(), NodeID{0});
  for (std::size_t i = 0; i < level.my_shard_ids.size(); ++i) {
    const GraphShard& shard_s = level.my_shards[i];
    if (shard_s.nodes.empty()) continue;
    std::vector<NodeID> locals;
    locals.reserve(shard_s.nodes.size());
    for (const NodeID u : shard_s.nodes) {
      locals.push_back(level.shard.local_of(u));
    }
    const Subgraph sub = induced_subgraph(resident, locals);
    MatchingOptions sub_options = options;
    std::vector<BlockID> sub_blocks;
    if (options.blocks != nullptr) {
      // The block constraint travels into the shard subgraph's id space.
      sub_blocks.reserve(locals.size());
      for (const NodeID l : locals) sub_blocks.push_back((*options.blocks)[l]);
      sub_options.blocks = &sub_blocks;
    }
    Rng shard_rng = level_rng.fork(1 + level.my_shard_ids[i]);
    const std::vector<NodeID> matched =
        compute_matching(sub.graph, matcher, sub_options, shard_rng);
    for (NodeID lu = 0; lu < matched.size(); ++lu) {
      const NodeID lv = matched[lu];
      if (lv <= lu) continue;  // handle each pair once, skip unmatched
      const NodeID u = sub.local_to_global[lu];
      const NodeID v = sub.local_to_global[lv];
      partner[u] = v;
      partner[v] = u;
    }
  }
  if (stats_ != nullptr) {
    for (NodeID u = 0; u < num_owned; ++u) {
      if (partner[u] != u && u < partner[u]) ++stats_->matching.local_pairs;
    }
  }

  // Rating of the tentative local match at each owned node (0 if
  // unmatched); ghost entries are filled by the exchange below. The
  // rater runs on the resident CSR with the exchanged ghost degrees and
  // enforces the pair-weight bound plus the block constraint.
  const TentativeMatchRater rater(resident, options,
                                  level.shard.weighted_degrees());
  std::vector<double> match_rating(num_local, 0.0);
  for (NodeID u = 0; u < num_owned; ++u) {
    match_rating[u] = rater.match_rating(u, partner[u]);
  }

  // --- Phase 2: boundary-candidate exchange with the halo peers (global
  // ids on the wire). Every PE tells every neighbor-owning peer the
  // tentative match rating of its boundary nodes; both owners of a
  // cross-shard edge can then evaluate the gap condition identically. ---
  level.exchange_halo(
      pe_, 2,
      [&](NodeID u, std::vector<std::uint64_t>& entry) {
        // Unmatched boundary nodes stay at the receiver's default of 0.0,
        // so only matched ones need to cross the wire.
        if (match_rating[u] == 0.0) return false;
        entry.push_back(std::bit_cast<std::uint64_t>(match_rating[u]));
        return true;
      },
      [&](NodeID ghost, const std::uint64_t* entry) {
        match_rating[ghost] = std::bit_cast<double>(entry[1]);
      });

  // --- Phase 3: the gap graph (§3.3): cross-shard edges whose rating
  // beats the tentative local matches at both endpoints. A spanning edge
  // is materialized at both owners; an edge between two of my own shards
  // once. ---
  struct GapCandidate {
    NodeID u;  ///< my endpoint (local id)
    NodeID v;  ///< other endpoint (local id: owned or ghost)
    NodeID u_global;
    NodeID v_global;
    double rating;
  };
  std::vector<GapCandidate> cands;
  for (const GraphShard& shard_s : level.my_shards) {
    for (const CrossShardArc& arc : shard_s.cross_arcs) {
      const NodeID lu = level.shard.local_of(arc.u);
      const NodeID lv = level.shard.local_of(arc.v);
      const bool v_mine = level.shard.is_owned(lv);
      if (v_mine && arc.u > arc.v) continue;  // the mirror arc covers it
      double r = 0.0;
      if (rater.admits_gap_edge(lu, lv, arc.weight, match_rating[lu],
                                match_rating[lv], &r)) {
        cands.push_back({lu, lv, arc.u, arc.v, r});
      }
    }
  }

  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  // Indexed by local node id: nomination below walks this structure, so
  // its order must be the node order, not hash order.
  std::vector<std::vector<std::size_t>> incident(num_local);
  std::vector<std::vector<std::size_t>> spanning(p);  // by remote owner
  for (std::size_t i = 0; i < cands.size(); ++i) {
    incident[cands[i].u].push_back(i);
    const int q = level.owner_of_node(cands[i].v_global, p);
    if (q == rank) {
      incident[cands[i].v].push_back(i);
    } else {
      spanning[q].push_back(i);
    }
  }

  // --- Phase 4: iterated locally-heaviest rounds. Each round, every node
  // nominates its best remaining gap edge; an edge nominated from both
  // sides is matched and dissolves tentative local matches. Nominations
  // for spanning edges cross the wire; taken flags of newly matched
  // nodes travel point-to-point to exactly the peers that hold the node
  // in their ghost layer (never gathered); a zero all-reduce terminates
  // every PE in the same round. ---
  std::vector<std::uint8_t> alive(cands.size(), 1);
  // Per local node: the round in which it was taken (0: still free).
  std::vector<std::uint32_t> taken(num_local, 0);
  auto better = [&](std::size_t i, std::size_t b) {
    if (cands[i].rating != cands[b].rating) {
      return cands[i].rating > cands[b].rating;
    }
    return edge_key(cands[i].u_global, cands[i].v_global) <
           edge_key(cands[b].u_global, cands[b].v_global);
  };
  // Per local node: its nominated candidate this round (kNone: none).
  std::vector<std::size_t> best(num_local, kNone);
  for (std::uint32_t round = 1;; ++round) {
    if (stats_ != nullptr) ++stats_->matching.gap_rounds;
    for (NodeID x = 0; x < num_local; ++x) {
      std::size_t b = kNone;
      if (!taken[x]) {
        for (const std::size_t i : incident[x]) {
          if (alive[i] && (b == kNone || better(i, b))) b = i;
        }
      }
      best[x] = b;
    }
    auto best_at = [&](NodeID x, std::size_t i) { return best[x] == i; };

    // Nomination exchange for spanning candidates.
    std::vector<std::vector<std::uint64_t>> nominations(p);
    for (int q = 0; q < p; ++q) {
      for (const std::size_t i : spanning[q]) {
        if (alive[i] && best_at(cands[i].u, i)) {
          nominations[q].push_back(
              edge_key(cands[i].u_global, cands[i].v_global));
        }
      }
    }
    hash_set<std::uint64_t> remote_best;
    for (const std::vector<std::uint64_t>& words :
         pe_.exchange(std::move(nominations), &level.peer)) {
      remote_best.insert(words.begin(), words.end());
    }

    // Decide on the nominations alone: two distinct both-nominated edges
    // can never share an endpoint (best is one edge per node), so
    // simultaneous resolution is safe — and unlike a mid-pass taken
    // check, it is independent of candidate list order, which keeps the
    // outcome identical for every p.
    auto dissolve = [&](NodeID x) {
      const NodeID prev = partner[x];  // tentative partner: same shard
      if (prev != x) partner[prev] = prev;
    };
    std::uint64_t matched_here = 0;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (!alive[i]) continue;
      const NodeID u = cands[i].u;
      const NodeID v = cands[i].v;
      const bool v_mine = level.shard.is_owned(v);
      const bool u_nominates = best_at(u, i);
      const bool v_nominates =
          v_mine ? best_at(v, i)
                 : remote_best.contains(
                       edge_key(cands[i].u_global, cands[i].v_global));
      if (u_nominates && v_nominates) {
        dissolve(u);
        partner[u] = v;
        if (v_mine) {
          dissolve(v);
          partner[v] = u;
        }
        taken[u] = round;
        taken[v] = round;
        alive[i] = 0;
        if (v_mine || cands[i].u_global < cands[i].v_global) {
          ++matched_here;  // count each pair once globally
          if (stats_ != nullptr) ++stats_->matching.gap_pairs;
        }
      }
    }

    // Taken notifications: an owned node matched this round flips its
    // taken flag at every peer holding it as a ghost.
    level.exchange_halo(
        pe_, 1,
        [&](NodeID u, std::vector<std::uint64_t>&) { return taken[u] == round; },
        [&](NodeID ghost, const std::uint64_t*) { taken[ghost] = round; });
    // Retire candidates that lost an endpoint this round — after the
    // taken-sync, so every PE (and every p) kills the same set.
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (alive[i] && (taken[cands[i].u] || taken[cands[i].v])) alive[i] = 0;
    }
    if (pe_.all_reduce_sum(matched_here) == 0) break;
  }

  return partner;
}

// --------------------------------------------------------- contraction ----

DistLevel DistHierarchy::contract_level(DistLevel& fine,
                                        const std::vector<NodeID>& partner) {
  const int p = pe_.size();
  const int rank = pe_.rank();
  const ShardGraph& sg = fine.shard;
  const StaticGraph& resident = sg.csr();
  const NodeID num_owned = sg.num_owned();
  const BlockID num_shards = fine.num_shards;

  auto go = [&](NodeID l) { return sg.global_of(l); };
  auto is_canonical = [&](NodeID lu) {
    const NodeID lv = partner[lu];
    return lv == lu || go(lv) > go(lu);
  };

  // --- Coarse ids by owner shard: shard s numbers its canonical
  // endpoints in ascending global order; the per-shard counts are
  // all-gathered scalar-wise and prefix-summed into the replicated
  // coarse-id ranges. ---
  std::vector<std::uint64_t> my_counts(fine.my_shard_ids.size(), 0);
  for (std::size_t i = 0; i < fine.my_shards.size(); ++i) {
    for (const NodeID u : fine.my_shards[i].nodes) {
      if (is_canonical(sg.local_of(u))) ++my_counts[i];
    }
  }
  const std::vector<std::uint64_t> counts =
      gather_per_shard(num_shards, my_counts);
  std::vector<NodeID> shard_begin(num_shards + 1, 0);
  for (BlockID s = 0; s < num_shards; ++s) {
    shard_begin[s + 1] = shard_begin[s] + static_cast<NodeID>(counts[s]);
  }
  const NodeID coarse_n = shard_begin.back();

  // Resident fine -> coarse ids: canonical endpoints from the shard
  // numbering, same-rank partners by copying, cross-rank partners and
  // the ghost layer from the halo exchanges below.
  std::vector<NodeID> coarse_of(sg.num_local(), kInvalidNode);
  for (std::size_t i = 0; i < fine.my_shards.size(); ++i) {
    NodeID next_id = shard_begin[fine.my_shard_ids[i]];
    for (const NodeID u : fine.my_shards[i].nodes) {
      const NodeID lu = sg.local_of(u);
      if (is_canonical(lu)) coarse_of[lu] = next_id++;
    }
  }
  for (NodeID lu = 0; lu < num_owned; ++lu) {
    if (coarse_of[lu] != kInvalidNode) continue;
    const NodeID lv = partner[lu];  // the canonical endpoint
    if (sg.is_owned(lv)) coarse_of[lu] = coarse_of[lv];
  }

  // --- Halo exchange 1: boundary match decisions. The owner of a
  // cross-rank pair's canonical endpoint assigned the coarse id; it
  // ships the id to the partner's owner. ---
  {
    std::vector<std::vector<std::uint64_t>> outbox(p);
    for (NodeID lu = 0; lu < num_owned; ++lu) {
      const NodeID lv = partner[lu];
      if (lv == lu || sg.is_owned(lv) || !is_canonical(lu)) continue;
      const int q = fine.owner_of_node(go(lv), p);
      outbox[q].push_back(go(lv));
      outbox[q].push_back(coarse_of[lu]);
    }
    for (const std::vector<std::uint64_t>& words :
         pe_.exchange(std::move(outbox), &fine.peer)) {
      for (std::size_t i = 0; i + 1 < words.size(); i += 2) {
        const NodeID lu = sg.peer_owned_of(static_cast<NodeID>(words[i]),
                                           rank, pe_.halo_level());
        coarse_of[lu] = static_cast<NodeID>(words[i + 1]);
      }
    }
  }
#ifndef NDEBUG
  for (NodeID lu = 0; lu < num_owned; ++lu) {
    assert(coarse_of[lu] != kInvalidNode && "every owned node got a coarse id");
  }
#endif

  // --- Halo exchange 2: ghost coarse ids, so arc targets can be
  // translated. Every peer learns the coarse id of each of my owned
  // boundary nodes it holds as a ghost. ---
  fine.exchange_halo(
      pe_, 2,
      [&](NodeID u, std::vector<std::uint64_t>& entry) {
        entry.push_back(coarse_of[u]);
        return true;
      },
      [&](NodeID ghost, const std::uint64_t* entry) {
        coarse_of[ghost] = static_cast<NodeID>(entry[1]);
      });

  // --- Halo exchange 3: coarse-edge contributions of cross-rank pairs.
  // The non-canonical owner translates its endpoint's full row into
  // coarse target space (everything it needs is resident) and ships it
  // to the canonical owner, which merges it into the coarse row. ---
  hash_map<NodeID, std::vector<std::pair<NodeID, EdgeWeight>>>
      shipped;  // fine global id of the remote member -> coarse arcs
  {
    std::vector<std::vector<std::uint64_t>> outbox(p);
    for (NodeID lu = 0; lu < num_owned; ++lu) {
      const NodeID lv = partner[lu];
      if (lv == lu || sg.is_owned(lv) || is_canonical(lu)) continue;
      const int q = fine.owner_of_node(go(lv), p);
      std::vector<std::uint64_t>& words = outbox[q];
      words.push_back(go(lu));
      words.push_back(resident.last_arc(lu) - resident.first_arc(lu));
      for (EdgeID e = resident.first_arc(lu); e < resident.last_arc(lu); ++e) {
        words.push_back(coarse_of[resident.arc_target(e)]);
        words.push_back(weight_bits(resident.arc_weight(e)));
      }
    }
    for (const std::vector<std::uint64_t>& words :
         pe_.exchange(std::move(outbox), &fine.peer)) {
      std::size_t i = 0;
      while (i + 1 < words.size()) {
        const NodeID member = static_cast<NodeID>(words[i]);
        const std::uint64_t narcs = words[i + 1];
        i += 2;
        auto& arcs = shipped[member];
        arcs.reserve(narcs);
        for (std::uint64_t j = 0; j < narcs; ++j) {
          arcs.emplace_back(static_cast<NodeID>(words[i]),
                            bits_weight(words[i + 1]));
          i += 2;
        }
      }
    }
  }

  // --- Owner-computes coarse rows: merge the members' coarse-translated
  // arcs, drop the self-arc, sort by coarse target. The sorted canonical
  // row form makes every downstream stream (shard subgraphs, cross-arc
  // scans) a pure function of the graph content, independent of p. ---
  DistLevel next;
  next.global_n = coarse_n;
  next.num_shards = num_shards;
  next.shard_begin = shard_begin;
  next.my_shard_ids = fine.my_shard_ids;
  next.my_shards.resize(fine.my_shard_ids.size());

  RowSet rows;
  rows.xadj.push_back(0);
  std::vector<BlockID> owned_warm;
  std::vector<std::pair<NodeID, EdgeWeight>> acc;
  for (std::size_t i = 0; i < fine.my_shards.size(); ++i) {
    const BlockID s = fine.my_shard_ids[i];
    GraphShard& coarse_shard = next.my_shards[i];
    for (const NodeID u : fine.my_shards[i].nodes) {
      const NodeID lu = sg.local_of(u);
      if (!is_canonical(lu)) continue;
      const NodeID c = coarse_of[lu];
      acc.clear();
      auto add_member = [&](NodeID l) {
        for (EdgeID e = resident.first_arc(l); e < resident.last_arc(l); ++e) {
          const NodeID ct = coarse_of[resident.arc_target(e)];
          if (ct != c) acc.emplace_back(ct, resident.arc_weight(e));
        }
      };
      add_member(lu);
      NodeWeight weight = resident.node_weight(lu);
      const NodeID lv = partner[lu];
      if (lv != lu) {
        weight += resident.node_weight(lv);
        if (sg.is_owned(lv)) {
          add_member(lv);
        } else {
          const auto it = shipped.find(go(lv));
          assert(it != shipped.end() && "remote member must have shipped");
          for (const auto& [ct, w] : it->second) {
            if (ct != c) acc.emplace_back(ct, w);
          }
        }
      }
      std::sort(acc.begin(), acc.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });

      rows.ids.push_back(c);
      rows.vwgt.push_back(weight);
      for (std::size_t j = 0; j < acc.size(); ++j) {
        if (j > 0 && acc[j].first == rows.adj.back()) {
          rows.ewgt.back() += acc[j].second;  // merge parallel coarse arcs
        } else {
          rows.adj.push_back(acc[j].first);
          rows.ewgt.push_back(acc[j].second);
        }
      }
      for (EdgeID e = rows.xadj.back(); e < rows.adj.size(); ++e) {
        const NodeID ct = rows.adj[e];
        if (ct < shard_begin[s] || ct >= shard_begin[s + 1]) {  // other shard
          coarse_shard.cross_arcs.push_back({c, ct, rows.ewgt[e]});
        }
      }
      rows.xadj.push_back(rows.adj.size());
      if (warm_) owned_warm.push_back(fine.warm_blocks[lu]);
    }
    coarse_shard.nodes.resize(shard_begin[s + 1] - shard_begin[s]);
    std::iota(coarse_shard.nodes.begin(), coarse_shard.nodes.end(),
              shard_begin[s]);
  }

  // The coarse ghost layer: remote cross-arc targets, refreshed over the
  // coarse send list exactly like a fine level's (weights, full-row
  // weighted degrees, and the warm block when warm-started).
  std::vector<NodeID> ghosts;
  for (const GraphShard& coarse_shard : next.my_shards) {
    for (const CrossShardArc& arc : coarse_shard.cross_arcs) {
      if (next.owner_of_node(arc.v, p) != rank) ghosts.push_back(arc.v);
    }
  }
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());

  // Seal the resident structures of the coarse level.
  NodeWeight max_weight = 0;
  for (const NodeWeight w : rows.vwgt) max_weight = std::max(max_weight, w);
  ShardGraphParts parts;
  parts.owned = rows.ids;
  parts.owned_rows = std::move(rows);
  parts.ghosts = std::move(ghosts);
  next.shard = ShardGraph(std::move(parts));
  if (warm_) next.warm_blocks = std::move(owned_warm);
  seal_halo(next, warm_);
  next.max_node_weight = static_cast<NodeWeight>(
      pe_.all_reduce_max(static_cast<std::uint64_t>(max_weight)));

  // The sharded contraction map of the fine level (owned nodes only —
  // this *is* the per-level map; nothing is gathered).
  fine.owned_to_coarse.assign(coarse_of.begin(), coarse_of.begin() + num_owned);
  return next;
}

// -------------------------------------------------------- uncoarsening ----

const StaticGraph& DistHierarchy::coarsest() {
  if (levels_.size() == 1) return *finest_;
  if (!coarsest_replica_.has_value()) {
    // The one permitted gather: the coarsest level is tiny (the stop
    // rule bounds it by the contraction limit) and initial partitioning
    // wants it whole on every PE, as in the paper.
    const DistLevel& L = levels_.back();
    const StaticGraph& resident = L.shard.csr();
    const NodeID num_owned = L.shard.num_owned();
    std::vector<std::uint64_t> words;
    for (NodeID i = 0; i < num_owned; ++i) {
      append_row_words(words, L.shard.global_of(i),
                       {resident.node_weight(i), resident.neighbors(i),
                        resident.arc_weights(i)},
                       [&](NodeID t) { return L.shard.global_of(t); });
    }
    const auto gathered =
        // kappa-lint: allow(no-hierarchy-gathers, "one-time O(n_coarsest) replica gather, sanctioned by §4.2")
        pe_.all_gather_vectors(std::move(words));
    std::vector<GraphRow> by_id(L.global_n);
    for (const auto& vec : gathered) {
      std::size_t cursor = 0;
      GraphRow row;
      while (cursor + 2 < vec.size()) {
        const NodeID id = decode_row_words(vec, cursor, row);
        by_id[id] = std::move(row);
      }
    }
    std::vector<EdgeID> xadj;
    xadj.reserve(L.global_n + 1);
    xadj.push_back(0);
    std::vector<NodeID> adj;
    std::vector<EdgeWeight> ewgt;
    std::vector<NodeWeight> vwgt;
    vwgt.reserve(L.global_n);
    for (NodeID u = 0; u < L.global_n; ++u) {
      vwgt.push_back(by_id[u].weight);
      adj.insert(adj.end(), by_id[u].targets.begin(), by_id[u].targets.end());
      ewgt.insert(ewgt.end(), by_id[u].weights.begin(),
                  by_id[u].weights.end());
      xadj.push_back(adj.size());
    }
    coarsest_replica_.emplace(std::move(xadj), std::move(adj), std::move(ewgt),
                              std::move(vwgt));
    if (stats_ != nullptr) {
      ShardFootprint replica;
      replica.owned_nodes = num_owned;
      replica.ghost_nodes = L.global_n - num_owned;
      replica.arcs = coarsest_replica_->num_arcs();
      stats_->footprint.merge_peak(replica);
    }
  }
  return *coarsest_replica_;
}

std::vector<BlockID> DistHierarchy::coarsest_warm_assignment() const {
  assert(warm_ && "only warm-started builds carry block constraints");
  const int p = pe_.size();
  const DistLevel& L = levels_.back();
  const NodeID num_owned = L.shard.num_owned();
  std::vector<std::uint64_t> words;
  words.reserve(num_owned);
  for (NodeID i = 0; i < num_owned; ++i) words.push_back(L.warm_blocks[i]);
  const auto gathered =
      // kappa-lint: allow(no-hierarchy-gathers, "O(n_coarsest) warm-start blocks at the coarsest level only")
      pe_.all_gather_vectors(std::move(words));
  return reassemble_owned(L, p, gathered);
}

DistPartition DistHierarchy::lift(const Partition& coarsest_partition) const {
  return DistPartition(levels_.back(), coarsest_partition, pe_);
}

DistPartition DistHierarchy::project(std::size_t l,
                                     const DistPartition& coarse) const {
  return DistPartition::project(levels_[l], levels_[l + 1], coarse, pe_);
}

Partition DistHierarchy::materialize(const DistPartition& partition) const {
  return partition.materialize(pe_);
}

BlockRowShard DistHierarchy::distribute_block_rows(
    std::size_t l, const DistPartition& partition, BlockID k) const {
  const int p = pe_.size();
  const int rank = pe_.rank();
  const DistLevel& L = levels_[l];
  const StaticGraph& resident = L.shard.csr();
  const NodeID num_owned = L.shard.num_owned();

  if (l == 0) {
    // The finest level is the always-resident input graph, so row content
    // never has to travel: the shard owners announce (id, block) of their
    // owned nodes to the block owners, which extract the rows locally.
    std::vector<NodeID> mine;
    std::vector<BlockID> mine_blocks;
    std::vector<std::vector<std::uint64_t>> outbox(p);
    for (NodeID i = 0; i < num_owned; ++i) {
      const NodeID u = L.shard.global_of(i);
      const BlockID b = partition.block(u);
      const int dest = BlockRowShard::owner_of_block(b, p);
      if (dest == rank) {
        mine.push_back(u);
        mine_blocks.push_back(b);
      } else {
        outbox[dest].push_back(pack_pair(u, b));
      }
    }
    for (const std::vector<std::uint64_t>& words :
         pe_.exchange(std::move(outbox))) {
      for (const std::uint64_t word : words) {
        const auto [u, b] = unpack_pair(word);
        mine.push_back(static_cast<NodeID>(u));
        mine_blocks.push_back(static_cast<BlockID>(b));
      }
    }
    std::vector<std::size_t> order(mine.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) { return mine[x] < mine[y]; });
    std::vector<NodeID> ids;
    std::vector<BlockID> blocks;
    ids.reserve(order.size());
    blocks.reserve(order.size());
    for (const std::size_t i : order) {
      ids.push_back(mine[i]);
      blocks.push_back(mine_blocks[i]);
    }
    return BlockRowShard(extract_rows(*finest_, ids), blocks, k, rank, p);
  }

  // §5.2 data distribution: rows move from shard owners to block owners,
  // each preceded by its block word (the receiver holds no assignment).
  // The rows this rank keeps go through the same encoding, so every
  // source is one word stream in ascending id order (owned local ids
  // ascend with global ids).
  std::vector<std::vector<std::uint64_t>> streams(p);
  for (NodeID i = 0; i < num_owned; ++i) {
    const NodeID u = L.shard.global_of(i);
    const BlockID b = partition.block(u);
    std::vector<std::uint64_t>& words =
        streams[BlockRowShard::owner_of_block(b, p)];
    words.push_back(b);
    append_row_words(
        words, u,
        {resident.node_weight(i), resident.neighbors(i),
         resident.arc_weights(i)},
        [&](NodeID t) { return L.shard.global_of(t); });
  }
  // Deterministic all-to-all rendezvous; this rank's stream stays here.
  streams = pe_.exchange(std::move(streams));

  // Merge the p sorted streams straight into the core rows.
  RowSet core;
  std::vector<BlockID> blocks;
  core.xadj.push_back(0);
  std::vector<std::size_t> cursor(p, 0);
  while (true) {
    int next = -1;
    for (int q = 0; q < p; ++q) {
      if (cursor[q] + 3 < streams[q].size() &&
          (next < 0 || streams[q][cursor[q] + 1] <
                           streams[next][cursor[next] + 1])) {
        next = q;
      }
    }
    if (next < 0) break;
    std::size_t& c = cursor[next];
    blocks.push_back(static_cast<BlockID>(streams[next][c++]));
    decode_row_words(streams[next], c, core);
    if (core.ids.size() > 1 && core.ids.back() <= core.ids.end()[-2]) {
      throw std::runtime_error("rank " + std::to_string(rank) + ", level " +
                               std::to_string(l) + ": rows from rank " +
                               std::to_string(next) +
                               " are not in ascending id order");
    }
  }
  return BlockRowShard(std::move(core), blocks, k, rank, p);
}

}  // namespace kappa
