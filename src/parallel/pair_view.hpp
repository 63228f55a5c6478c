/// \file pair_view.hpp
/// \brief Pair-local views of the SPMD refiner (§5.2): the two sides of a
/// block pair, their wire form, and the view the pair search runs on.
///
/// Everything here works in *pair ids*: the local ids of the rank's
/// block-row store (parallel/shard_graph.hpp), extended per pair by
/// foreign ids for shipped partner nodes the store does not know. The
/// per-arc and per-member loops index dense, epoch-stamped scratch arrays
/// owned by the refiner and reused across pairs; global ids are
/// translated only where data enters the rank (decoding a shipped side,
/// the quotient edge's seed lists). Every order that reaches the search —
/// band, fringe, view ids, seeds — is ascending global id order, so a
/// view is a pure function of the pair and the partition state,
/// independent of p and of the local id assignment.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/partition.hpp"
#include "graph/quotient_graph.hpp"
#include "graph/static_graph.hpp"
#include "parallel/dist_partition.hpp"
#include "parallel/shard_graph.hpp"
#include "util/epoch_marks.hpp"
#include "util/seeded_hash.hpp"
#include "util/types.hpp"

namespace kappa {

/// One side of a pair view: the band with its in-pair rows plus the
/// same-side fringe — the one-hop frozen context whose ids classify the
/// stub blocks at the executor. All ids are pair ids; band and fringe
/// ascend by global id.
struct PairSide {
  std::vector<NodeID> band;
  std::vector<EdgeID> xadj{0};    ///< band.size() + 1 row offsets
  std::vector<NodeID> adj;        ///< in-pair arc targets (pair ids)
  std::vector<EdgeWeight> ewgt;   ///< parallel to adj
  std::vector<NodeWeight> vwgt;   ///< parallel to band
  std::vector<NodeID> fringe;
};

/// A pair-local view: the two bands as movable nodes with their full
/// in-pair rows, plus the frozen stubs (see build_pair_view()).
struct PairView {
  StaticGraph graph;
  Partition partition;
  std::vector<NodeID> to_global;
  std::vector<BlockID> entry;  ///< entry block per view node
  std::vector<char> movable;   ///< band nodes; stubs are frozen context
  std::vector<NodeID> seeds;   ///< boundary seeds, mapped into view ids
};

/// Per-rank scratch of the pair builders, reused across pairs: the pair id
/// space of the current pair and the epoch-stamped marks and slots over
/// it. Sized to the store's local ids plus the largest shipped partner
/// side seen — never to the level's node count.
class PairScratch {
 public:
  /// Starts a pair on \p store: forgets the previous pair's foreign ids.
  /// Required before decode_pair_side() and build_pair_view(); a side
  /// built only to be shipped needs no pair id space.
  void begin_pair(const BlockRowShard& store);

  /// Number of pair ids of the current pair.
  [[nodiscard]] NodeID num_ids() const {
    return store_->num_local() + static_cast<NodeID>(foreign_.size());
  }

  [[nodiscard]] NodeID global_of(NodeID id) const {
    const NodeID num_local = store_->num_local();
    return id < num_local ? store_->global_of(id) : foreign_[id - num_local];
  }

  /// Pair id of \p global, kInvalidNode if neither the store nor the
  /// current pair's shipped data knows it (a hash lookup: ingress only).
  [[nodiscard]] NodeID find(NodeID global) const;

  /// Pair id of \p global, adding a foreign id if unknown (ingress).
  NodeID intern(NodeID global);

  /// Test hook: forces the epoch of every mark set.
  void set_epoch_for_testing(std::uint32_t epoch);

 private:
  friend PairSide build_pair_side(const BlockRowShard&, const DistPartition&,
                                  BlockID, BlockID, BlockID,
                                  std::span<const NodeID>,
                                  const std::vector<NodeID>&, int,
                                  PairScratch&);
  friend PairView build_pair_view(const PairSide&, const PairSide&,
                                  NodeWeight, NodeWeight, const QuotientEdge&,
                                  BlockID, PairScratch&);

  const BlockRowShard* store_ = nullptr;
  std::vector<NodeID> foreign_;            ///< foreign id -> global
  hash_map<NodeID, NodeID> foreign_index_;  ///< global -> foreign id
  EpochMarks band_;  ///< side builder: band membership (BFS visited)
  /// Side builder: fringe dedupe; view builder: id is in the view.
  EpochMarks seen_;
  std::vector<NodeID> view_id_;  ///< pair id -> view id (when in view)
  std::vector<NodeID> frontier_;
  std::vector<NodeID> next_;
};

/// Builds block \p side's half of the pair {a, b} view at its owner, in
/// \p store's local ids. With \p ship_depth <= 0 the band is the whole
/// block (legacy whole-block shipping). Otherwise the §5.2 bounded
/// boundary-band BFS on the resident rows, seeded by the side's *current*
/// pair boundary plus the quotient edge's seeds that still sit in this
/// side — stale seeds whose node left the pair are skipped before any row
/// is touched (a departed node's row is no longer resident here). Every
/// cross-side step of the free two-block band BFS lands on a current
/// pair-boundary node, so the union of the two per-side bands equals the
/// band the sequential boundary_band() would compute on a replica.
///
/// The current pair boundary is found among \p candidates, which must
/// hold every member of \p side with a target outside it (the store's
/// boundary candidates, or all of store.members(side)); entries that are
/// not members or do not face the partner block are skipped. Debug builds
/// check the result against a scan of every member.
PairSide build_pair_side(const BlockRowShard& store,
                         const DistPartition& partition, BlockID a, BlockID b,
                         BlockID side, std::span<const NodeID> candidates,
                         const std::vector<NodeID>& stale_seeds,
                         int ship_depth, PairScratch& scratch);

/// Wire layout of a pair side built on \p store: [band count, band
/// rows..., fringe count, fringe ids...], global ids throughout. Band rows
/// travel in the shared row codec.
std::vector<std::uint64_t> encode_pair_side(const PairSide& side,
                                            const BlockRowShard& store);

/// Inverse of encode_pair_side() at the executor: global ids become pair
/// ids of \p scratch's current pair.
PairSide decode_pair_side(std::span<const std::uint64_t> words,
                          PairScratch& scratch);

/// Assembles the view of pair {edge.a, edge.b} from the two sides: the
/// bands as movable nodes, plus the frozen stubs — fringe nodes and any
/// cross-side band-row target outside the other band (possible when
/// mid-level moves created boundary the stale quotient seeds miss). Stubs
/// carry their true block, so every band gain is exact, but they are
/// non-movable: their rows are only the mirror arcs back into the bands,
/// and their weights are never read. View ids ascend with global ids and
/// the block weights are the caller-supplied *global* pair weights, so
/// the search on the view is a pure function of the pair and the supplied
/// state — independent of p and of which rank executes. (The refiner
/// passes the globally consistent replicated weights.)
PairView build_pair_view(const PairSide& side_a, const PairSide& side_b,
                         NodeWeight weight_a, NodeWeight weight_b,
                         const QuotientEdge& edge, BlockID k,
                         PairScratch& scratch);

}  // namespace kappa
