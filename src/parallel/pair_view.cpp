/// \file pair_view.cpp
/// \brief Pair sides and pair views on the block-row store's local ids
/// (see pair_view.hpp).
#include "parallel/pair_view.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "parallel/wire_format.hpp"

namespace kappa {

void PairScratch::begin_pair(const BlockRowShard& store) {
  store_ = &store;
  // Erase key by key: clear() would touch every bucket the largest
  // shipped side ever grew the table to, on every pair.
  for (const NodeID global : foreign_) foreign_index_.erase(global);
  foreign_.clear();
}

NodeID PairScratch::find(NodeID global) const {
  const NodeID local = store_->local_of(global);
  if (local != kInvalidNode) return local;
  const auto it = foreign_index_.find(global);
  return it == foreign_index_.end() ? kInvalidNode : it->second;
}

NodeID PairScratch::intern(NodeID global) {
  const NodeID known = find(global);
  if (known != kInvalidNode) return known;
  const NodeID id = num_ids();
  foreign_.push_back(global);
  foreign_index_.emplace(global, id);
  return id;
}

void PairScratch::set_epoch_for_testing(std::uint32_t epoch) {
  band_.set_epoch_for_testing(epoch);
  seen_.set_epoch_for_testing(epoch);
}

namespace {

/// Sorts pair ids by their global ids.
template <typename GlobalOf>
void sort_by_global(std::vector<NodeID>& ids, GlobalOf&& global_of) {
  std::sort(ids.begin(), ids.end(), [&](NodeID x, NodeID y) {
    return global_of(x) < global_of(y);
  });
}

}  // namespace

PairSide build_pair_side(const BlockRowShard& store,
                         const DistPartition& partition, BlockID a, BlockID b,
                         BlockID side, std::span<const NodeID> candidates,
                         const std::vector<NodeID>& stale_seeds,
                         int ship_depth, PairScratch& scratch) {
  const BlockID other = side == a ? b : a;
  PairSide out;
  auto append_filtered_row = [&](NodeID u) {
    const GraphRowView row = store.row_view(u);
    out.vwgt.push_back(row.weight);
    for (std::size_t i = 0; i < row.targets.size(); ++i) {
      const BlockID bt = partition.block_of_local(row.targets[i]);
      if (bt != a && bt != b) continue;
      out.adj.push_back(row.targets[i]);
      out.ewgt.push_back(row.weights[i]);
    }
    out.xadj.push_back(out.adj.size());
  };

  if (ship_depth <= 0) {
    out.band = store.members(side);
    for (const NodeID u : out.band) append_filtered_row(u);
    return out;
  }

  // Seeds: the side's current pair boundary plus the still-in-side
  // quotient seeds (they keep the view search's stale-seeded BFS covered,
  // which is what makes depth = infinity reproduce whole-block shipping).
  // The band marks double as the BFS visited set; a level-synchronous BFS
  // admits exactly the side nodes within depth - 1 hops of a seed, so the
  // band is independent of the visiting order.
  EpochMarks& in_band = scratch.band_;
  in_band.reset(store.num_local());
  std::vector<NodeID>& frontier = scratch.frontier_;
  std::vector<NodeID>& next = scratch.next_;
  frontier.clear();
  auto seed = [&](NodeID u) {
    if (in_band.mark(u)) {
      out.band.push_back(u);
      frontier.push_back(u);
    }
  };
  auto faces_other = [&](NodeID u) {
    for (const NodeID t : store.row_view(u).targets) {
      if (partition.block_of_local(t) == other) return true;
    }
    return false;
  };
  for (const NodeID u : candidates) {
    // A candidate that left the side may no longer be resident here; its
    // cached block says so without touching the row. The band marks skip
    // repeated candidates before the row scan.
    if (partition.block_of_local(u) == side && !in_band.marked(u) &&
        faces_other(u)) {
      seed(u);
    }
  }
#ifndef NDEBUG
  // The candidate seeds must be exactly the member scan's.
  std::size_t scanned = 0;
  for (const NodeID u : store.members(side)) {
    if (faces_other(u)) {
      assert(in_band.marked(u) && "boundary member missing from candidates");
      ++scanned;
    }
  }
  assert(scanned == out.band.size() && "candidate seed is no boundary member");
#endif
  for (const NodeID s : stale_seeds) {
    // Stale seed lists are global ids: translate once, skip seeds that
    // left the side (their rows are no longer resident here).
    const NodeID local = store.local_of(s);
    if (partition.knows_local(local) &&
        partition.block_of_local(local) == side) {
      seed(local);
    }
  }
  for (int level = 1; level < ship_depth && !frontier.empty(); ++level) {
    next.clear();
    for (const NodeID u : frontier) {
      for (const NodeID t : store.row_view(u).targets) {
        if (partition.block_of_local(t) == side && in_band.mark(t)) {
          out.band.push_back(t);
          next.push_back(t);
        }
      }
    }
    frontier.swap(next);
  }
  sort_by_global(out.band, [&](NodeID u) { return store.global_of(u); });

  EpochMarks& in_fringe = scratch.seen_;
  in_fringe.reset(store.num_local());
  for (const NodeID u : out.band) {
    const std::size_t begin = out.adj.size();
    append_filtered_row(u);
    for (std::size_t i = begin; i < out.adj.size(); ++i) {
      const NodeID t = out.adj[i];
      if (partition.block_of_local(t) == side && !in_band.marked(t) &&
          in_fringe.mark(t)) {
        out.fringe.push_back(t);
      }
    }
  }
  sort_by_global(out.fringe, [&](NodeID u) { return store.global_of(u); });
  return out;
}

std::vector<std::uint64_t> encode_pair_side(const PairSide& side,
                                            const BlockRowShard& store) {
  std::vector<std::uint64_t> words;
  words.reserve(2 + 3 * side.band.size() + 2 * side.adj.size() +
                side.fringe.size());
  words.push_back(side.band.size());
  for (std::size_t i = 0; i < side.band.size(); ++i) {
    const EdgeID begin = side.xadj[i];
    const EdgeID end = side.xadj[i + 1];
    append_row_words(
        words, store.global_of(side.band[i]),
        {side.vwgt[i],
         std::span<const NodeID>(side.adj.data() + begin,
                                 side.adj.data() + end),
         std::span<const EdgeWeight>(side.ewgt.data() + begin,
                                     side.ewgt.data() + end)},
        [&](NodeID t) { return store.global_of(t); });
  }
  words.push_back(side.fringe.size());
  for (const NodeID f : side.fringe) words.push_back(store.global_of(f));
  return words;
}

PairSide decode_pair_side(std::span<const std::uint64_t> words,
                          PairScratch& scratch) {
  PairSide side;
  std::size_t cursor = 0;
  const std::uint64_t bands = words[cursor++];
  side.band.reserve(bands);
  side.vwgt.reserve(bands);
  side.xadj.reserve(bands + 1);
  for (std::uint64_t i = 0; i < bands; ++i) {
    side.band.push_back(scratch.intern(static_cast<NodeID>(words[cursor])));
    side.vwgt.push_back(bits_weight(words[cursor + 1]));
    const std::uint64_t narcs = words[cursor + 2];
    cursor += 3;
    for (std::uint64_t j = 0; j < narcs; ++j) {
      side.adj.push_back(scratch.intern(static_cast<NodeID>(words[cursor])));
      side.ewgt.push_back(bits_weight(words[cursor + 1]));
      cursor += 2;
    }
    side.xadj.push_back(side.adj.size());
  }
  const std::uint64_t fringes = words[cursor++];
  side.fringe.reserve(fringes);
  for (std::uint64_t i = 0; i < fringes; ++i) {
    side.fringe.push_back(scratch.intern(static_cast<NodeID>(words[cursor++])));
  }
  return side;
}

PairView build_pair_view(const PairSide& side_a, const PairSide& side_b,
                         NodeWeight weight_a, NodeWeight weight_b,
                         const QuotientEdge& edge, BlockID k,
                         PairScratch& scratch) {
  const NodeID num_ids = scratch.num_ids();
  EpochMarks& in_view = scratch.seen_;
  in_view.reset(num_ids);
  if (scratch.view_id_.size() < num_ids) scratch.view_id_.resize(num_ids);
  std::vector<NodeID>& view_id = scratch.view_id_;

  // Band members first (row = position in its side), then the stub nodes
  // with their blocks: the shipped same-side fringes, plus any band-row
  // target not otherwise in the view — by construction a cross-side
  // target (same-side targets are covered by the fringe), so its block is
  // the partner block of the row's side. The first classification of an
  // id wins.
  struct Member {
    NodeID global;
    NodeID id;     ///< pair id
    NodeID row;    ///< band row in its side; kInvalidNode for a stub
    BlockID block;
  };
  std::vector<Member> members;
  members.reserve(side_a.band.size() + side_b.band.size() +
                  side_a.fringe.size() + side_b.fringe.size());
  auto add_band = [&](const PairSide& side, BlockID block) {
    for (NodeID i = 0; i < side.band.size(); ++i) {
      const NodeID x = side.band[i];
      const bool fresh = in_view.mark(x);
      assert(fresh && "the two bands are disjoint");
      (void)fresh;
      members.push_back({scratch.global_of(x), x, i, block});
    }
  };
  auto add_stub = [&](NodeID x, BlockID block) {
    if (in_view.mark(x)) {
      members.push_back({scratch.global_of(x), x, kInvalidNode, block});
    }
  };
  add_band(side_a, edge.a);
  add_band(side_b, edge.b);
  for (const NodeID f : side_a.fringe) add_stub(f, edge.a);
  for (const NodeID f : side_b.fringe) add_stub(f, edge.b);
  for (const NodeID t : side_a.adj) add_stub(t, edge.b);
  for (const NodeID t : side_b.adj) add_stub(t, edge.a);

  std::sort(members.begin(), members.end(),
            [](const Member& x, const Member& y) {
              return x.global < y.global;
            });
  const NodeID n = static_cast<NodeID>(members.size());
  PairView view;
  view.to_global.reserve(n);
  for (NodeID v = 0; v < n; ++v) {
    view.to_global.push_back(members[v].global);
    view_id[members[v].id] = v;
  }
  auto is_stub = [&](NodeID x) {
    return members[view_id[x]].row == kInvalidNode;
  };

  // Stub rows: the mirror arcs of every band arc into the stub, in a
  // deterministic scan (side a's rows in ascending id order, then side
  // b's, arcs in row order), bucketed by a counting pass.
  std::vector<EdgeID> mirror_begin(n + 1, 0);
  auto for_each_band_arc = [&](auto&& visit) {
    for (const PairSide* side : {&side_a, &side_b}) {
      for (NodeID i = 0; i < side->band.size(); ++i) {
        for (EdgeID e = side->xadj[i]; e < side->xadj[i + 1]; ++e) {
          visit(side->band[i], side->adj[e], side->ewgt[e]);
        }
      }
    }
  };
  for_each_band_arc([&](NodeID, NodeID t, EdgeWeight) {
    if (is_stub(t)) ++mirror_begin[view_id[t] + 1];
  });
  for (NodeID v = 0; v < n; ++v) mirror_begin[v + 1] += mirror_begin[v];
  std::vector<std::pair<NodeID, EdgeWeight>> mirrors(mirror_begin[n]);
  {
    std::vector<EdgeID> fill(mirror_begin.begin(), mirror_begin.end() - 1);
    for_each_band_arc([&](NodeID u, NodeID t, EdgeWeight w) {
      if (is_stub(t)) mirrors[fill[view_id[t]]++] = {view_id[u], w};
    });
  }

  std::vector<EdgeID> xadj;
  xadj.reserve(n + 1);
  xadj.push_back(0);
  std::vector<NodeID> adj;
  std::vector<EdgeWeight> ewgt;
  std::vector<NodeWeight> vwgt;
  vwgt.reserve(n);
  view.entry.reserve(n);
  view.movable.reserve(n);
  for (NodeID v = 0; v < n; ++v) {
    const Member& m = members[v];
    view.entry.push_back(m.block);
    if (m.row != kInvalidNode) {
      const PairSide& side = m.block == edge.a ? side_a : side_b;
      const NodeID i = m.row;
      vwgt.push_back(side.vwgt[i]);
      view.movable.push_back(1);
      for (EdgeID e = side.xadj[i]; e < side.xadj[i + 1]; ++e) {
        adj.push_back(view_id[side.adj[e]]);
        ewgt.push_back(side.ewgt[e]);
      }
    } else {
      // Frozen stub: true block for exact gains, mirror arcs only, weight
      // unused (a stub never enters a band, so it is never moved).
      vwgt.push_back(0);
      view.movable.push_back(0);
      for (EdgeID e = mirror_begin[v]; e < mirror_begin[v + 1]; ++e) {
        adj.push_back(mirrors[e].first);
        ewgt.push_back(mirrors[e].second);
      }
    }
    xadj.push_back(adj.size());
  }
  view.graph = StaticGraph(std::move(xadj), std::move(adj), std::move(ewgt),
                           std::move(vwgt));

  // The view partition carries the *global* block weights of the pair so
  // that the balance bounds of the confined search equal the replicated
  // search's (with whole-block shipping every member is present and the
  // values coincide with a per-node sum).
  std::vector<NodeWeight> block_weights(k, 0);
  block_weights[edge.a] = weight_a;
  block_weights[edge.b] = weight_b;
  view.partition = Partition(std::vector<BlockID>(view.entry), k,
                             std::move(block_weights));

  // Boundary seeds from the quotient construction; seeds that left the
  // pair in an earlier color class of this iteration are absent from the
  // view, and in-pair seeds are always band members (the side builders
  // seed their BFS with them).
  for (const NodeID u : edge.boundary) {
    const NodeID x = scratch.find(u);
    if (x != kInvalidNode && in_view.marked(x) && !is_stub(x)) {
      view.seeds.push_back(view_id[x]);
    }
  }
  return view;
}

}  // namespace kappa
