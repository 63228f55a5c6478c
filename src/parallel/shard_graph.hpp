/// \file shard_graph.hpp
/// \brief Per-PE data sharding of the SPMD pipeline: the owned-node CSR
/// with a one-hop ghost layer (§3.3) and the §5.2 block-row store.
///
/// The paper's distributed design gives every PE only its own node shard
/// plus a halo of ghost nodes — resident graph memory is O(n/p + halo),
/// not O(n). Two structures realize that here:
///
///   ShardGraph   — built per contraction level for the SPMD matcher: a
///     compact CSR over the rank's owned nodes (union of its virtual
///     shards) plus the one-hop ghost layer. The finest level is sealed
///     straight into its CSR: each owned row holds its core arcs (targets
///     owned here) in input order, then its ghost arcs; each ghost row
///     holds the mirror arcs back into the owned set. Ghost node weights
///     and weighted degrees are dynamic per level and are *not* read off
///     the replica: the level's ghost refresh delivers them from the
///     owning ranks after the seal (set_ghost()), so the CommStats
///     counters see every refresh.
///
///   BlockRowShard — built per uncoarsening level for the SPMD refiner:
///     the CSR rows of the nodes currently assigned to this rank's
///     blocks (blocks are owned round-robin, block b -> rank b mod p).
///     "Immediately after uncontracting a matching, every PE stores the
///     partition it is responsible for in a static adjacency array
///     representation ... In addition, we use a hash table to store
///     migrated nodes and a second edge array" (§5.2): the level-start
///     rows are the static core; nodes that migrate between blocks
///     mid-level move their rows between ranks and are appended behind
///     it. The store relabels its rows into a rank-local id space once
///     per level, so the refiner's per-arc loops index dense arrays and
///     look global ids up only at ingress.
///
/// Both structures translate global ids through a FlatIndex
/// (util/flat_index.hpp) sized to their resident plus ghost ids, never to
/// the level's node count. Ids that arrive from a peer go through
/// peer_local_of(), which rejects an id that is not resident here in
/// every build.
///
/// Rows travel verbatim (source id space, source arc order; see
/// RowSet in graph/subgraph.hpp), so every structure assembled from them
/// is a pure function of the replica content and the partition state —
/// independent of which rank held or shipped the data. That invariant is
/// what keeps the SPMD pipeline's results identical for every PE count.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/static_graph.hpp"
#include "graph/subgraph.hpp"
#include "parallel/comm_stats.hpp"
#include "parallel/wire_format.hpp"
#include "util/flat_index.hpp"
#include "util/types.hpp"

namespace kappa {

/// One cross-shard arc: a local endpoint, a remote endpoint in another
/// shard, and the edge weight.
struct CrossShardArc {
  NodeID u = kInvalidNode;  ///< endpoint inside the owning shard
  NodeID v = kInvalidNode;  ///< endpoint in shard(v) != shard(u)
  EdgeWeight weight = 0;
};

/// One virtual shard of a level (§3.3): the nodes it owns and the arcs
/// leaving it. Shards are owned round-robin by the physical ranks, which
/// keeps every shard-keyed computation independent of the PE count.
struct GraphShard {
  std::vector<NodeID> nodes;              ///< owned nodes (global ids, sorted)
  std::vector<CrossShardArc> cross_arcs;  ///< arcs leaving the shard
};

/// Pre-assembled ingredients of a ShardGraph when no replica exists to
/// extract them from: the distributed hierarchy store builds each coarse
/// level's parts shard-locally (owned rows from the halo-exchanged
/// contraction) and seals them here. Rows are in *global* id space; ids
/// must be sorted.
struct ShardGraphParts {
  std::vector<NodeID> owned;   ///< sorted global ids
  RowSet owned_rows;           ///< rows of `owned`
  std::vector<NodeID> ghosts;  ///< sorted global ids
};

/// The checked translation of a global id a peer put on the wire: the
/// value of \p global in \p index, which must lie in [\p first, \p last).
/// Over TCP the id is bytes from another process, and an unchecked result
/// would index out of bounds, so any other outcome throws
/// std::runtime_error naming the receiving \p rank, the \p level and the
/// id — in every build.
NodeID peer_local_of(const FlatIndex& index, NodeID global, NodeID first,
                     NodeID last, int rank, int level);

/// One rank's resident graph for one matching level: compact CSR over
/// owned nodes (local ids [0, num_owned())) followed by the one-hop
/// ghost layer (local ids [num_owned(), num_local())). Owned rows carry
/// the node's full arc list (owned and ghost targets, as local ids);
/// ghost rows carry only the mirror arcs back into the owned set.
class ShardGraph {
 public:
  ShardGraph() = default;

  /// Builds the resident graph of the finest level from this rank's
  /// \p shards of \p level: the owned set is the union of their nodes, and
  /// cross arcs to nodes outside it form the ghost layer (arcs between two
  /// of the rank's shards stay in the core). Ghost weights and weighted
  /// degrees stay 0 until set_ghost(); with one PE there are no ghosts.
  ShardGraph(const StaticGraph& level, const std::vector<GraphShard>& shards);

  /// Seals pre-assembled \p parts into the local CSR — the replica-free
  /// construction path of the distributed hierarchy store. Ghost mirror
  /// rows are derived from the owned rows' ghost targets; ghost weights
  /// and weighted degrees stay 0 until set_ghost().
  explicit ShardGraph(ShardGraphParts parts);

  /// Records the node weight and full-row weighted degree of ghost
  /// \p local, as its owner sent them in the level's ghost refresh.
  void set_ghost(NodeID local, NodeWeight weight, EdgeWeight weighted_degree) {
    assert(!is_owned(local) && local < num_local());
    csr_.set_node_weight(local, weight);
    weighted_degrees_[local] = weighted_degree;
  }

  /// The sealed local CSR (owned rows first, then ghost rows).
  [[nodiscard]] const StaticGraph& csr() const { return csr_; }

  [[nodiscard]] NodeID num_owned() const { return num_owned_; }
  [[nodiscard]] NodeID num_ghost() const {
    return static_cast<NodeID>(local_to_global_.size()) - num_owned_;
  }
  [[nodiscard]] NodeID num_local() const {
    return static_cast<NodeID>(local_to_global_.size());
  }

  [[nodiscard]] bool is_owned(NodeID local) const {
    return local < num_owned_;
  }

  /// Global id of a resident node.
  [[nodiscard]] NodeID global_of(NodeID local) const {
    return local_to_global_[local];
  }

  /// Local id of a global node; kInvalidNode if not resident here.
  [[nodiscard]] NodeID local_of(NodeID global) const {
    return global_to_local_.find(global);
  }

  /// Local id of an owned node that a peer named in a message to \p rank
  /// at \p level; throws unless it is owned here (see peer_local_of()).
  [[nodiscard]] NodeID peer_owned_of(NodeID global, int rank,
                                     int level) const {
    return peer_local_of(global_to_local_, global, 0, num_owned(), rank,
                         level);
  }

  /// Local id of a ghost node that a peer named in a message to \p rank
  /// at \p level; throws unless it is a ghost here.
  [[nodiscard]] NodeID peer_ghost_of(NodeID global, int rank,
                                     int level) const {
    return peer_local_of(global_to_local_, global, num_owned(), num_local(),
                         rank, level);
  }

  /// Full-row weighted degrees by local id: owned entries computed from
  /// the resident row, ghost entries received from the owner.
  [[nodiscard]] const std::vector<EdgeWeight>& weighted_degrees() const {
    return weighted_degrees_;
  }

  /// Resident size of this structure (owned + halo nodes, resident arcs).
  [[nodiscard]] ShardFootprint footprint() const;

 private:
  NodeID num_owned_ = 0;
  StaticGraph csr_;
  std::vector<NodeID> local_to_global_;
  FlatIndex global_to_local_;
  std::vector<EdgeWeight> weighted_degrees_;
};

/// One full CSR row in global id space — the unit the refiner's stores
/// exchange when a node's block (and with it the row's home rank)
/// changes.
struct GraphRow {
  NodeWeight weight = 0;
  std::vector<NodeID> targets;      ///< global ids, replica arc order
  std::vector<EdgeWeight> weights;  ///< parallel to targets
};

/// Zero-copy view of a resident row (spans into the owning store).
struct GraphRowView {
  NodeWeight weight = 0;
  std::span<const NodeID> targets;
  std::span<const EdgeWeight> weights;
};

/// Appends one row in the shared wire layout [id, weight, narcs,
/// (target, weight)*], each target written as \p global_of(target) (the
/// identity for rows already in global ids, the store's local -> global
/// map for rows in a BlockRowShard's local ids). The single encoder behind
/// pair-side shipping, row migration and the block-row distribution of
/// the SPMD pipeline.
template <typename GlobalOf>
void append_row_words(std::vector<std::uint64_t>& words, NodeID id,
                      const GraphRowView& row, GlobalOf&& global_of);

/// Decodes one row at \p cursor (inverse of append_row_words), advancing
/// the cursor; returns the node id.
NodeID decode_row_words(const std::vector<std::uint64_t>& words,
                        std::size_t& cursor, GraphRow& row);

/// Decodes one row at \p cursor and appends it (id, weight, arcs) to
/// \p rows, whose xadj must be non-empty; advances the cursor. Throws
/// std::runtime_error if the row runs past the end of \p words.
void decode_row_words(const std::vector<std::uint64_t>& words,
                      std::size_t& cursor, RowSet& rows);

/// One rank's §5.2 block-row store for one uncoarsening level: the rows
/// of all nodes currently assigned to the rank's blocks, in a rank-local
/// id space. The level-start rows are relabeled once: resident rows take
/// local ids [0, num_core) in ascending global order, their ghost targets
/// follow (ascending global order too), and row targets are stored as
/// local ids. Every refinement inner loop then indexes dense arrays; the
/// global -> local index is consulted only at ingress (level start, rows
/// migrating in). Rows are immutable within a level, so a row that leaves
/// is only tombstoned and a returning node reuses its stored row; rows
/// migrating in for the first time are appended, their unknown targets
/// getting fresh local ids. All state is sized to the rows this rank has
/// held this level plus their targets, never to the level's node count.
class BlockRowShard {
 public:
  /// Rank that owns block \p b in a runtime of \p num_pes PEs.
  [[nodiscard]] static int owner_of_block(BlockID b, int num_pes) {
    return static_cast<int>(b % static_cast<BlockID>(num_pes));
  }

  /// Extracts the rows of the nodes whose block \p assignment maps to
  /// \p rank's blocks.
  BlockRowShard(const StaticGraph& level,
                const std::vector<BlockID>& assignment, BlockID k, int rank,
                int num_pes);

  /// Assembles the store from pre-distributed rows — the replica-free
  /// path of the SPMD pipeline, whose rows arrive from the shard owners
  /// over channels together with each row's block. \p core must hold
  /// exactly the rows of the nodes assigned to this rank's blocks, sorted
  /// by global id, targets in global id space; \p row_blocks is parallel
  /// to core.ids (no rank holds the full assignment vector anymore — the
  /// partition state itself is sharded, see parallel/dist_partition.hpp).
  BlockRowShard(RowSet core, const std::vector<BlockID>& row_blocks, BlockID k,
                int rank, int num_pes);

  [[nodiscard]] int rank() const { return rank_; }

  /// Whether this rank owns block \p b.
  [[nodiscard]] bool owns_block(BlockID b) const {
    return owner_of_block(b, num_pes_) == rank_;
  }

  /// Size of the local id space: every node whose row this rank holds or
  /// held this level, plus every target of those rows.
  [[nodiscard]] NodeID num_local() const {
    return static_cast<NodeID>(ids_.size());
  }

  /// Global id of local id \p local.
  [[nodiscard]] NodeID global_of(NodeID local) const { return ids_[local]; }

  /// Local id of \p global, kInvalidNode if unknown here. An index
  /// lookup: for ingress paths, never for per-arc loops.
  [[nodiscard]] NodeID local_of(NodeID global) const {
    return index_.find(global);
  }

  /// Whether the row of local id \p local is currently resident here.
  [[nodiscard]] bool is_resident(NodeID local) const {
    return slot_[local] != kInvalidNode && resident_[local] != 0;
  }

  /// Local ids of the nodes currently in owned block \p b, in ascending
  /// global id order.
  [[nodiscard]] const std::vector<NodeID>& members(BlockID b) const {
    return members_[b];
  }

  /// Zero-copy view of the row of \p local (targets as local ids); the
  /// row must be resident.
  [[nodiscard]] GraphRowView row_view(NodeID local) const {
    assert(is_resident(local) && "row lookup requires a resident node");
    const bool core = slot_[local] < num_core_;
    const RowSet& rows = core ? core_ : migrated_;
    const NodeID s = core ? slot_[local] : slot_[local] - num_core_;
    return {rows.vwgt[s],
            std::span<const NodeID>(rows.adj.data() + rows.xadj[s],
                                    rows.adj.data() + rows.xadj[s + 1]),
            std::span<const EdgeWeight>(rows.ewgt.data() + rows.xadj[s],
                                        rows.ewgt.data() + rows.xadj[s + 1])};
  }

  /// Boundary candidates of owned block \p b: a superset of its members
  /// whose row has a target outside \p b — the rows a pair-side build
  /// scans for its seeds instead of every member. It may repeat ids and
  /// hold nodes that have left \p b since; readers filter by block.
  [[nodiscard]] const std::vector<NodeID>& candidates(BlockID b) const {
    return candidates_[b];
  }

  /// Replaces the candidates of owned block \p b (the quotient
  /// construction's row scan rebuilds them once per iteration).
  void set_candidates(BlockID b, std::vector<NodeID> candidates) {
    candidates_[b] = std::move(candidates);
  }

  /// Applies one committed move u: \p from -> \p to (\p u a global id).
  /// Only membership, row residency and the boundary candidates are
  /// updated: a row leaving for a block owned elsewhere is tombstoned
  /// (read it with row_view() first to ship it), and \p incoming_row must
  /// be set when \p to is owned here and no row of u was held here before
  /// this level (shipped by the old owner). The move keeps the candidates
  /// a superset of the boundary: u joins \p to's list, and when \p from
  /// is owned here, u's resident neighbors join \p from's list (those
  /// still in \p from now reach u across the border; readers drop the
  /// rest).
  void apply_move(NodeID u, BlockID from, BlockID to,
                  const GraphRow* incoming_row);

  /// Resident size of this structure (rows + arcs currently held).
  [[nodiscard]] ShardFootprint footprint() const;

 private:
  /// Takes the level-start rows (sorted by global id, global targets)
  /// into the local id space: core rows first, then their ghost targets.
  void relabel(RowSet core, const std::vector<BlockID>& row_blocks);
  /// Local id of \p global, appending a fresh one if unknown.
  NodeID intern(NodeID global);
  void insert_member(BlockID b, NodeID local);
  void erase_member(BlockID b, NodeID local);

  int rank_ = 0;
  int num_pes_ = 1;
  std::vector<NodeID> ids_;          ///< local -> global
  FlatIndex index_;                  ///< global -> local (ingress only)
  NodeID num_core_ = 0;
  /// local -> row slot: < num_core_ in core_, else in migrated_ (offset
  /// by num_core_); kInvalidNode when no row was ever held.
  std::vector<NodeID> slot_;
  std::vector<char> resident_;       ///< local -> row currently held
  /// Level-start rows (slot = local id) and rows appended by migrations;
  /// targets are local ids, ids unused (ids_ holds them).
  RowSet core_;
  RowSet migrated_;
  std::vector<std::vector<NodeID>> members_;  ///< per block, by global id
  std::vector<std::vector<NodeID>> candidates_;  ///< per block, unordered
  std::uint64_t resident_nodes_ = 0;
  std::uint64_t resident_arcs_ = 0;
};

template <typename GlobalOf>
void append_row_words(std::vector<std::uint64_t>& words, NodeID id,
                      const GraphRowView& row, GlobalOf&& global_of) {
  words.push_back(id);
  words.push_back(weight_bits(row.weight));
  words.push_back(row.targets.size());
  for (std::size_t i = 0; i < row.targets.size(); ++i) {
    words.push_back(global_of(row.targets[i]));
    words.push_back(weight_bits(row.weights[i]));
  }
}

}  // namespace kappa
