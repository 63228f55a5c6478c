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

ShardGraph::ShardGraph(const StaticGraph& level,
                       const std::vector<GraphShard>& shards) {
  // Owned nodes: the union of this rank's virtual shards, sorted by
  // global id (per-shard lists are sorted already).
  std::vector<NodeID> owned;
  for (const GraphShard& shard : shards) {
    owned.insert(owned.end(), shard.nodes.begin(), shard.nodes.end());
  }
  std::sort(owned.begin(), owned.end());
  num_owned_ = static_cast<NodeID>(owned.size());
  global_to_local_.reserve(owned.size());
  for (NodeID local = 0; local < num_owned_; ++local) {
    global_to_local_.insert(owned[local], local);
  }

  // Cross arcs leaving the owned set define the one-hop ghost layer.
  // Cross arcs between two shards of this rank stay inside the core.
  std::vector<CrossShardArc> ghost_arcs;
  for (const GraphShard& shard : shards) {
    for (const CrossShardArc& arc : shard.cross_arcs) {
      if (global_to_local_.find(arc.v) == kInvalidNode) {
        ghost_arcs.push_back(arc);
      }
    }
  }
  std::vector<NodeID> ghosts;
  ghosts.reserve(ghost_arcs.size());
  for (const CrossShardArc& arc : ghost_arcs) ghosts.push_back(arc.v);
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());

  local_to_global_ = std::move(owned);
  local_to_global_.insert(local_to_global_.end(), ghosts.begin(),
                          ghosts.end());
  const NodeID num_local = static_cast<NodeID>(local_to_global_.size());
  global_to_local_.reserve(num_local);
  for (NodeID local = num_owned_; local < num_local; ++local) {
    global_to_local_.insert(local_to_global_[local], local);
  }

  // The level's rows are resident here (this read is the initial data
  // distribution of the level), so owned weights and full-row weighted
  // degrees are local; ghost entries come from the level's refresh.
  std::vector<NodeWeight> vwgt(num_local, 0);
  weighted_degrees_.assign(num_local, 0);
  for (NodeID i = 0; i < num_owned_; ++i) {
    vwgt[i] = level.node_weight(local_to_global_[i]);
    weighted_degrees_[i] = level.weighted_degree(local_to_global_[i]);
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
  for (const CrossShardArc& arc : ghost_arcs) {
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
    ewgt[fill[lu]++] = it->weight;
    adj[fill[lv]] = lu;
    ewgt[fill[lv]++] = it->weight;
  }
  csr_ = StaticGraph(std::move(xadj), std::move(adj), std::move(ewgt),
                     std::move(vwgt));
}

ShardGraph::ShardGraph(ShardGraphParts parts) {
  num_owned_ = static_cast<NodeID>(parts.owned.size());
  assert(parts.owned_rows.ids.size() == parts.owned.size());

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
  vwgt.resize(num_local, 0);
  csr_ = StaticGraph(std::move(xadj), std::move(adj), std::move(ewgt),
                     std::move(vwgt));

  // Owned weighted degrees from the full resident rows.
  weighted_degrees_.assign(num_local, 0);
  for (NodeID i = 0; i < num_owned_; ++i) {
    weighted_degrees_[i] = csr_.weighted_degree(i);
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
