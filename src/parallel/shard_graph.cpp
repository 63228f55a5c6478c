#include "parallel/shard_graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "parallel/wire_format.hpp"

namespace kappa {

NodeID decode_row_words(const std::vector<std::uint64_t>& words,
                        std::size_t& cursor, GraphRow& row) {
  const NodeID id = static_cast<NodeID>(words[cursor]);
  row.weight = bits_weight(words[cursor + 1]);
  const std::uint64_t narcs = words[cursor + 2];
  cursor += 3;
  row.targets.clear();
  row.weights.clear();
  row.targets.reserve(narcs);
  row.weights.reserve(narcs);
  for (std::uint64_t j = 0; j < narcs; ++j) {
    row.targets.push_back(static_cast<NodeID>(words[cursor]));
    row.weights.push_back(bits_weight(words[cursor + 1]));
    cursor += 2;
  }
  return id;
}

void decode_row_words(const std::vector<std::uint64_t>& words,
                      std::size_t& cursor, RowSet& rows) {
  if (cursor + 3 > words.size() ||
      words[cursor + 2] > (words.size() - cursor - 3) / 2) {
    throw std::runtime_error("a shipped row runs past the end of its message");
  }
  rows.ids.push_back(static_cast<NodeID>(words[cursor]));
  rows.vwgt.push_back(bits_weight(words[cursor + 1]));
  const std::uint64_t narcs = words[cursor + 2];
  cursor += 3;
  for (std::uint64_t j = 0; j < narcs; ++j, cursor += 2) {
    rows.adj.push_back(static_cast<NodeID>(words[cursor]));
    rows.ewgt.push_back(bits_weight(words[cursor + 1]));
  }
  rows.xadj.push_back(rows.adj.size());
}

// ------------------------------------------------------------ ShardGraph ----

NodeID peer_local_of(const FlatIndex& index, NodeID global, NodeID first,
                     NodeID last, int rank, int level) {
  const NodeID local = index.find(global);
  if (local == kInvalidNode || local < first || local >= last) {
    const char* why = local == kInvalidNode ? "not resident here"
                                            : "outside the expected range";
    throw std::runtime_error("rank " + std::to_string(rank) + ", level " +
                             std::to_string(level) +
                             ": a peer message names node " +
                             std::to_string(global) + ", which is " + why);
  }
  return local;
}

ShardGraph::ShardGraph(const StaticGraph& level, const DistGraph& dist,
                       PEContext& pe) {
  const int p = pe.size();
  const int rank = pe.rank();
  const std::vector<BlockID> my_shards = dist.shards_of_rank(rank, p);

  // Owned nodes: the union of this rank's virtual shards, sorted by
  // global id (per-shard lists are sorted already).
  std::vector<NodeID> owned;
  for (const BlockID s : my_shards) {
    const std::vector<NodeID>& nodes = dist.shard(s).nodes;
    owned.insert(owned.end(), nodes.begin(), nodes.end());
  }
  std::sort(owned.begin(), owned.end());
  num_owned_ = static_cast<NodeID>(owned.size());

  // Rank-remote cross arcs define the one-hop ghost layer. Cross arcs
  // between two shards of this rank stay inside the core.
  struct GhostArc {
    NodeID u;  ///< owned endpoint (global id)
    NodeID v;  ///< ghost endpoint (global id)
    EdgeWeight w;
  };
  std::vector<GhostArc> ghost_arcs;
  for (const BlockID s : my_shards) {
    for (const CrossShardArc& arc : dist.shard(s).cross_arcs) {
      if (dist.owner_of_node(arc.v, p) != rank) {
        ghost_arcs.push_back({arc.u, arc.v, arc.weight});
      }
    }
  }
  std::vector<NodeID> ghosts;
  ghosts.reserve(ghost_arcs.size());
  for (const GhostArc& arc : ghost_arcs) ghosts.push_back(arc.v);
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());

  local_to_global_ = std::move(owned);
  local_to_global_.insert(local_to_global_.end(), ghosts.begin(),
                          ghosts.end());
  const NodeID num_local = static_cast<NodeID>(local_to_global_.size());
  global_to_local_.reserve(num_local);
  for (NodeID local = 0; local < num_local; ++local) {
    global_to_local_.insert(local_to_global_[local], local);
  }

  // The level's rows are resident here (this read is the initial data
  // distribution of the level), so owned weights and full-row weighted
  // degrees are local; ghost entries come from the refresh below.
  std::vector<NodeWeight> vwgt(num_local, 0);
  weighted_degrees_.assign(num_local, 0);
  for (NodeID i = 0; i < num_owned_; ++i) {
    vwgt[i] = level.node_weight(local_to_global_[i]);
    weighted_degrees_[i] = level.weighted_degree(local_to_global_[i]);
  }

  // --- Ghost refresh over channels: every neighboring rank sends, per
  // owned boundary node the receiver sees as a ghost, the triple
  // (global id, node weight, full-row weighted degree). The peer set is
  // symmetric (u adjacent to a node of q iff q has u as a ghost), so
  // each side knows exactly whom to expect. ---
  std::vector<char> is_peer(p, 0);
  for (const NodeID g : ghosts) {
    is_peer[dist.owner_of_node(g, p)] = 1;
  }
  {
    std::vector<std::vector<std::uint64_t>> to_peer(p);
    NodeID last_u = kInvalidNode;
    std::vector<int> peers_of_u;
    for (const GhostArc& arc : ghost_arcs) {
      if (arc.u != last_u) {
        last_u = arc.u;
        peers_of_u.clear();
      }
      const int q = dist.owner_of_node(arc.v, p);
      if (std::find(peers_of_u.begin(), peers_of_u.end(), q) !=
          peers_of_u.end()) {
        continue;
      }
      peers_of_u.push_back(q);
      const NodeID lu = global_to_local_.find(arc.u);
      to_peer[q].push_back(arc.u);
      to_peer[q].push_back(weight_bits(vwgt[lu]));
      to_peer[q].push_back(weight_bits(weighted_degrees_[lu]));
    }
    for (int q = 0; q < p; ++q) {
      if (q != rank && is_peer[q]) pe.send(q, std::move(to_peer[q]));
    }
  }
  for (int q = 0; q < p; ++q) {
    if (q == rank || !is_peer[q]) continue;
    const Message msg = pe.receive(q);
    for (std::size_t i = 0; i + 2 < msg.payload.size(); i += 3) {
      const NodeID local = peer_ghost_of(static_cast<NodeID>(msg.payload[i]),
                                         rank, pe.halo_level());
      vwgt[local] = bits_weight(msg.payload[i + 1]);
      weighted_degrees_[local] = bits_weight(msg.payload[i + 2]);
    }
  }

  // --- Seal the local CSR. An owned row holds the node's full arc list:
  // its core arcs (targets owned here) in input order, then its ghost
  // arcs; a ghost row holds the mirror arcs back into the owned set.
  // Ghost arcs enter every row in reverse ghost_arcs order. The matcher
  // streams read rows in order, so this order is part of the partition
  // (pinned against a DynamicOverlay-sealed reference in
  // shard_graph_test). ---
  std::vector<EdgeID> xadj(num_local + 1, 0);
  for (NodeID i = 0; i < num_owned_; ++i) {
    xadj[i + 1] = level.degree(local_to_global_[i]);
  }
  for (const GhostArc& arc : ghost_arcs) {
    ++xadj[global_to_local_.find(arc.v) + 1];
  }
  for (NodeID local = 0; local < num_local; ++local) {
    xadj[local + 1] += xadj[local];
  }
  std::vector<EdgeID> fill(xadj.begin(), xadj.end() - 1);
  std::vector<NodeID> adj(xadj.back());
  std::vector<EdgeWeight> ewgt(xadj.back());
  for (NodeID i = 0; i < num_owned_; ++i) {
    const NodeID u = local_to_global_[i];
    for (EdgeID e = level.first_arc(u); e < level.last_arc(u); ++e) {
      const NodeID t = global_to_local_.find(level.arc_target(e));
      if (t >= num_owned_) continue;  // a ghost arc, placed below
      adj[fill[i]] = t;
      ewgt[fill[i]++] = level.arc_weight(e);
    }
  }
  for (auto it = ghost_arcs.rbegin(); it != ghost_arcs.rend(); ++it) {
    const NodeID lu = global_to_local_.find(it->u);
    const NodeID lv = global_to_local_.find(it->v);
    adj[fill[lu]] = lv;
    ewgt[fill[lu]++] = it->w;
    adj[fill[lv]] = lu;
    ewgt[fill[lv]++] = it->w;
  }
  csr_ = StaticGraph(std::move(xadj), std::move(adj), std::move(ewgt),
                     std::move(vwgt));
}

ShardGraph::ShardGraph(ShardGraphParts parts) {
  num_owned_ = static_cast<NodeID>(parts.owned.size());
  assert(parts.owned_rows.ids.size() == parts.owned.size());
  assert(parts.ghost_weights.size() == parts.ghosts.size());
  assert(parts.ghost_weighted_degrees.size() == parts.ghosts.size());

  local_to_global_ = std::move(parts.owned);
  local_to_global_.insert(local_to_global_.end(), parts.ghosts.begin(),
                          parts.ghosts.end());
  global_to_local_.reserve(local_to_global_.size());
  for (NodeID local = 0; local < local_to_global_.size(); ++local) {
    global_to_local_.insert(local_to_global_[local], local);
  }

  // Owned rows keep their arcs with targets translated to local ids;
  // ghost mirror rows hold the arcs back into the owned set, derived from
  // the owned rows' ghost targets (sorted by owned endpoint — the order
  // is resident-only state that never feeds a p-sensitive stream).
  const NodeID num_local = static_cast<NodeID>(local_to_global_.size());
  std::vector<EdgeID> xadj = std::move(parts.owned_rows.xadj);
  std::vector<NodeID> adj = std::move(parts.owned_rows.adj);
  std::vector<EdgeWeight> ewgt = std::move(parts.owned_rows.ewgt);
  xadj.resize(num_local + 1, 0);
  for (NodeID& t : adj) {
    const NodeID global = t;
    t = global_to_local_.find(global);
    if (t == kInvalidNode) {
      // Coarse targets can come from a peer's shipped row contribution.
      throw std::runtime_error("an owned row reaches node " +
                               std::to_string(global) +
                               ", which is neither owned nor a ghost here");
    }
    if (t >= num_owned_) ++xadj[t + 1];
  }
  for (NodeID g = num_owned_; g < num_local; ++g) xadj[g + 1] += xadj[g];
  std::vector<EdgeID> fill(xadj.begin() + num_owned_, xadj.end() - 1);
  adj.resize(xadj.back());
  ewgt.resize(xadj.back());
  for (NodeID i = 0; i < num_owned_; ++i) {
    for (EdgeID e = xadj[i]; e < xadj[i + 1]; ++e) {
      const NodeID t = adj[e];
      if (t < num_owned_) continue;
      EdgeID& slot = fill[t - num_owned_];
      adj[slot] = i;
      ewgt[slot++] = ewgt[e];
    }
  }
  assert(fill.empty() || fill.back() == xadj.back());
  std::vector<NodeWeight> vwgt = std::move(parts.owned_rows.vwgt);
  vwgt.insert(vwgt.end(), parts.ghost_weights.begin(),
              parts.ghost_weights.end());
  csr_ = StaticGraph(std::move(xadj), std::move(adj), std::move(ewgt),
                     std::move(vwgt));

  // Owned weighted degrees from the full resident rows, ghost entries as
  // received from the owners.
  weighted_degrees_.assign(local_to_global_.size(), 0);
  for (NodeID i = 0; i < num_owned_; ++i) {
    weighted_degrees_[i] = csr_.weighted_degree(i);
  }
  for (std::size_t g = 0; g < parts.ghosts.size(); ++g) {
    weighted_degrees_[num_owned_ + g] = parts.ghost_weighted_degrees[g];
  }
}

ShardFootprint ShardGraph::footprint() const {
  ShardFootprint fp;
  fp.owned_nodes = num_owned();
  fp.ghost_nodes = num_ghost();
  fp.arcs = csr_.num_arcs();
  return fp;
}

// --------------------------------------------------------- BlockRowShard ----

BlockRowShard::BlockRowShard(const StaticGraph& level,
                             const std::vector<BlockID>& assignment, BlockID k,
                             int rank, int num_pes)
    : rank_(rank), num_pes_(num_pes), members_(k), candidates_(k) {
  std::vector<NodeID> mine;
  std::vector<BlockID> blocks;
  for (NodeID u = 0; u < level.num_nodes(); ++u) {
    if (owner_of_block(assignment[u], num_pes) != rank) continue;
    mine.push_back(u);
    blocks.push_back(assignment[u]);
  }
  relabel(extract_rows(level, mine), blocks);
}

BlockRowShard::BlockRowShard(RowSet core,
                             const std::vector<BlockID>& row_blocks, BlockID k,
                             int rank, int num_pes)
    : rank_(rank), num_pes_(num_pes), members_(k), candidates_(k) {
  relabel(std::move(core), row_blocks);
}

void BlockRowShard::relabel(RowSet core,
                            const std::vector<BlockID>& row_blocks) {
  assert(row_blocks.size() == core.ids.size() &&
         "one block per pre-distributed row");
  assert(std::is_sorted(core.ids.begin(), core.ids.end()));
  num_core_ = static_cast<NodeID>(core.ids.size());

  // Core ids first: one index lookup per arc translates core targets and
  // collects the rest, which become ghosts in ascending global order.
  index_.reserve(core.ids.size());
  for (NodeID local = 0; local < num_core_; ++local) {
    index_.insert(core.ids[local], local);
  }
  std::vector<EdgeID> ghost_arcs;
  std::vector<NodeID> ghosts;
  for (EdgeID e = 0; e < core.adj.size(); ++e) {
    const NodeID local = index_.find(core.adj[e]);
    if (local != kInvalidNode) {
      core.adj[e] = local;
    } else {
      ghost_arcs.push_back(e);
      ghosts.push_back(core.adj[e]);
    }
  }
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
  ids_ = std::move(core.ids);  // the stored rows are addressed by slot
  ids_.insert(ids_.end(), ghosts.begin(), ghosts.end());
  index_.reserve(ids_.size());
  for (NodeID local = num_core_; local < ids_.size(); ++local) {
    index_.insert(ids_[local], local);
  }
  for (const EdgeID e : ghost_arcs) core.adj[e] = index_.find(core.adj[e]);

  slot_.assign(ids_.size(), kInvalidNode);
  resident_.assign(ids_.size(), 0);
  for (NodeID i = 0; i < num_core_; ++i) {
    const BlockID b = row_blocks[i];
    assert(owns_block(b) &&
           "every shipped row must belong to one of this rank's blocks");
    slot_[i] = i;
    resident_[i] = 1;
    members_[b].push_back(i);  // ascending ids keep lists sorted
  }
  core_ = std::move(core);
  migrated_.xadj.push_back(0);
  resident_nodes_ = num_core_;
  resident_arcs_ = core_.num_arcs();
}

NodeID BlockRowShard::intern(NodeID global) {
  const NodeID fresh = static_cast<NodeID>(ids_.size());
  const NodeID local = index_.insert(global, fresh);
  if (local == fresh) {
    ids_.push_back(global);
    slot_.push_back(kInvalidNode);
    resident_.push_back(0);
  }
  return local;
}

void BlockRowShard::apply_move(NodeID u, BlockID from, BlockID to,
                               const GraphRow* incoming_row) {
  const bool from_mine = owns_block(from);
  const bool to_mine = owns_block(to);
  if (!from_mine && !to_mine) return;
  const NodeID local = intern(u);
  if (from_mine) {
    erase_member(from, local);
    for (const NodeID t : row_view(local).targets) {
      if (is_resident(t)) candidates_[from].push_back(t);
    }
  }
  if (to_mine) {
    insert_member(to, local);
    candidates_[to].push_back(local);
  }
  if (from_mine && !to_mine) {
    resident_arcs_ -= row_view(local).targets.size();
    resident_nodes_ -= 1;
    resident_[local] = 0;
  } else if (!from_mine && to_mine) {
    if (slot_[local] == kInvalidNode) {
      // First arrival this level: append the shipped row.
      assert(incoming_row != nullptr &&
             "a row migrating in must be shipped by its old owner");
      slot_[local] = num_core_ + static_cast<NodeID>(migrated_.vwgt.size());
      migrated_.vwgt.push_back(incoming_row->weight);
      for (std::size_t i = 0; i < incoming_row->targets.size(); ++i) {
        const NodeID t = intern(incoming_row->targets[i]);
        migrated_.adj.push_back(t);
        migrated_.ewgt.push_back(incoming_row->weights[i]);
      }
      migrated_.xadj.push_back(migrated_.adj.size());
    }
    // A returning node's row never changed: un-tombstone it.
    resident_[local] = 1;
    resident_nodes_ += 1;
    resident_arcs_ += row_view(local).targets.size();
  }
}

ShardFootprint BlockRowShard::footprint() const {
  ShardFootprint fp;
  fp.owned_nodes = resident_nodes_;
  fp.arcs = resident_arcs_;
  return fp;
}

void BlockRowShard::insert_member(BlockID b, NodeID local) {
  std::vector<NodeID>& list = members_[b];
  const NodeID global = ids_[local];
  list.insert(std::lower_bound(list.begin(), list.end(), global,
                               [&](NodeID x, NodeID g) { return ids_[x] < g; }),
              local);
}

void BlockRowShard::erase_member(BlockID b, NodeID local) {
  std::vector<NodeID>& list = members_[b];
  const NodeID global = ids_[local];
  const auto it =
      std::lower_bound(list.begin(), list.end(), global,
                       [&](NodeID x, NodeID g) { return ids_[x] < g; });
  assert(it != list.end() && *it == local);
  list.erase(it);
}

}  // namespace kappa
