/// \file comm_stats.hpp
/// \brief The per-rank counter table: every counter an SPMD rank reports,
/// declared once.
///
/// Each counter is one row of an X-macro list of (field, reduction). The
/// struct members, the cross-rank aggregation below, the rank-snapshot
/// wire codec (parallel/trace_merge.cpp) and the metrics export
/// (core/metrics_export.cpp) are all generated from the rows, so adding a
/// counter is one table line plus the site that increments it.
///
/// A standalone header so that result types (core/partitioner.hpp) can
/// carry the counters without pulling in the whole thread runtime —
/// entry points forward-declare PERuntime instead.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace kappa {

/// How a row combines across ranks: volumes add up (kSum); quantities
/// every rank passes together, and peaks, take the maximum (kMax).
enum class Reduction { kSum, kMax };

/// Table plumbing. A row is X(field, reduction[, key]); `key` names the
/// row in the metrics export where it differs from the field.
#define KAPPA_COUNTER_FIELD(field, reduction, ...) std::uint64_t field = 0;
#define KAPPA_COUNTER_ROW(field, reduction) \
  visit(#field, &Self::field, Reduction::reduction);
#define KAPPA_KEYED_COUNTER_ROW(field, reduction, key) \
  visit(#key, &Self::field, Reduction::reduction);

/// Declares the rows of ROWS as zero-initialized std::uint64_t members
/// plus for_each_counter(visit), which calls visit(name, &Type::field,
/// reduction) for every row in table order, and memberwise equality.
#define KAPPA_COUNTER_TABLE(Type, ROWS, ROW)             \
  ROWS(KAPPA_COUNTER_FIELD)                              \
  template <typename Visit>                              \
  static void for_each_counter(Visit&& visit) {          \
    using Self = Type;                                   \
    ROWS(ROW)                                            \
  }                                                      \
  bool operator==(const Type&) const = default;

/// Folds \p other into \p into, every row by its table reduction.
template <typename Counters>
void merge_counters(Counters& into, const Counters& other) {
  Counters::for_each_counter(
      [&](const char*, std::uint64_t Counters::*field, Reduction reduction) {
        into.*field = reduction == Reduction::kSum
                          ? into.*field + other.*field
                          : std::max(into.*field, other.*field);
      });
}

/// Adds \p other into \p into row by row, whatever the rows' reduction
/// (e.g. the footprints of hierarchy levels that all stay resident).
template <typename Counters>
void add_counters(Counters& into, const Counters& other) {
  Counters::for_each_counter(
      [&](const char*, std::uint64_t Counters::*field, Reduction) {
        into.*field += other.*field;
      });
}

/// The merge of every rank's counters.
template <typename Counters>
[[nodiscard]] Counters total_counters(const std::vector<Counters>& per_rank) {
  Counters total;
  for (const Counters& counters : per_rank) merge_counters(total, counters);
  return total;
}

// ------------------------------------------------------------ the table --

/// Halo-exchange traffic of one coarsening level: the point-to-point
/// messages the distributed hierarchy store sends while building the
/// level (ghost refreshes, boundary match decisions, coarse-edge
/// contributions) — the per-level communication shape of shard-owned
/// contraction.
#define KAPPA_HALO_COUNTERS(X) \
  X(messages, kSum)            \
  X(words, kSum)

/// Communication of one rank. The wire model is uniform: every
/// point-to-point send counts one message plus its payload words, and a
/// collective counts one message plus one payload copy *per destination
/// rank* (p - 1 of them for a flat all-gather or a broadcast root) — the
/// counters model what a non-hierarchical MPI implementation would put on
/// the wire, so a single-PE runtime communicates nothing.
///
/// - messages_sent, words_sent: the modeled sends.
/// - messages_received, words_received: their receive-side twins
///   (point-to-point and collective lanes). In a closed run
///   Σ messages_received = Σ messages_sent over all ranks; the per-rank
///   split exposes asymmetric roles (a broadcast root, a pair executor).
/// - barriers: synchronization points, collectives included. Every rank
///   passes them together, so ranks aggregate by max.
/// - collective_idle_ns: nanoseconds blocked inside collectives and
///   barriers, waiting for the slowest participant (paid at every color
///   class boundary).
/// - recv_idle_ns: nanoseconds blocked in a point-to-point receive with
///   an empty mailbox.
/// - rounds_waited: scheduling rounds (color classes) in which the rank
///   neither executed a pair nor shipped a partner side.
/// - wire_bytes_sent, wire_bytes_received: bytes the rank's transport
///   endpoint put on / took off the physical wire during the run (frame
///   headers and collective-lane traffic included); zero in-process. The
///   measured counterpart of the modeled words.
/// - heartbeat_frames_sent, heartbeat_words_sent: kappa-watch heartbeat
///   frames and payload words the endpoint sent during the run — observer
///   traffic, outside the modeled counters but inside wire_bytes_sent;
///   zero with watch off or in-process.
#define KAPPA_COMM_COUNTERS(X)   \
  X(messages_sent, kSum)         \
  X(words_sent, kSum)            \
  X(messages_received, kSum)     \
  X(words_received, kSum)        \
  X(barriers, kMax)              \
  X(collective_idle_ns, kSum)    \
  X(recv_idle_ns, kSum)          \
  X(rounds_waited, kSum)         \
  X(wire_bytes_sent, kSum)       \
  X(wire_bytes_received, kSum)   \
  X(heartbeat_frames_sent, kSum) \
  X(heartbeat_words_sent, kSum)

/// Peak resident footprint of the data-sharded SPMD graph structures on
/// one rank: the owned-node CSR plus the one-hop ghost layer (§3.3) and
/// the §5.2 block-row store of the refiner. The replicated structures
/// every rank keeps regardless of p (the level partition vector,
/// ownership maps) are deliberately excluded: this measures the
/// O(n/p + halo) graph data. The key column names the memory.* metrics.
///
/// - owned_nodes: peak owned nodes resident at once.
/// - ghost_nodes: peak ghost/halo nodes resident at once.
/// - arcs: peak resident adjacency entries (directed).
#define KAPPA_FOOTPRINT_COUNTERS(X) \
  X(owned_nodes, kMax, owned)       \
  X(ghost_nodes, kMax, ghost)       \
  X(arcs, kMax, arcs)

/// Volume of the §5.2 partner-side shipping during SPMD pairwise
/// refinement. Sender-side rows compare what band shipping put on the
/// wire against the whole block the legacy mode would have sent for the
/// same pairs; the executor side counts the pairs it ran. Either owner
/// of a pair may be its executor, so a rank ships the sides of the pairs
/// its partner owners execute. With band shipping on, rows_shipped
/// tracks the band (plus its one-hop fringe stubs), bounded by — and on
/// large blocks far below — whole_block_rows.
///
/// - pairs_executed: pairs this rank executed.
/// - pairs_shipped: partner sides this rank sent.
/// - rows_shipped: band rows plus fringe stubs sent.
/// - words_shipped: wire words of the sent sides.
/// - whole_block_rows: rows a whole-block send would have needed.
#define KAPPA_PAIR_SHIP_COUNTERS(X) \
  X(pairs_executed, kSum)           \
  X(pairs_shipped, kSum)            \
  X(rows_shipped, kSum)             \
  X(words_shipped, kSum)            \
  X(whole_block_rows, kSum)

/// Matching shape of the distributed coarsening, over all levels.
///
/// - local_pairs: pairs this rank matched inside its own shards.
/// - gap_pairs: cross-shard pairs this rank decided (each pair counted
///   on one rank only).
/// - gap_rounds: locally-heaviest rounds over the cross-shard gap graph;
///   every rank runs the same rounds, so ranks aggregate by max.
#define KAPPA_COARSEN_COUNTERS(X) \
  X(local_pairs, kSum)            \
  X(gap_pairs, kSum)              \
  X(gap_rounds, kMax)

// ---------------------------------------------------- generated structs --

/// Rows: KAPPA_HALO_COUNTERS.
struct LevelHaloStats {
  KAPPA_COUNTER_TABLE(LevelHaloStats, KAPPA_HALO_COUNTERS, KAPPA_COUNTER_ROW)
};

/// Rows: KAPPA_COMM_COUNTERS.
struct CommStats {
  KAPPA_COUNTER_TABLE(CommStats, KAPPA_COMM_COUNTERS, KAPPA_COUNTER_ROW)
  /// Per-coarsening-level halo-exchange breakdown (subset of the totals
  /// above), indexed by level; empty outside the SPMD coarsening path.
  std::vector<LevelHaloStats> halo_per_level;

  /// Total nanoseconds blocked (collectives plus empty-mailbox receives).
  [[nodiscard]] std::uint64_t idle_ns() const {
    return collective_idle_ns + recv_idle_ns;
  }
};

/// Rows: KAPPA_FOOTPRINT_COUNTERS.
struct ShardFootprint {
  KAPPA_COUNTER_TABLE(ShardFootprint, KAPPA_FOOTPRINT_COUNTERS,
                      KAPPA_KEYED_COUNTER_ROW)

  /// Pointwise peak of two footprints.
  void merge_peak(const ShardFootprint& other) { merge_counters(*this, other); }

  /// Resident nodes, owned plus ghosts.
  [[nodiscard]] std::uint64_t resident_nodes() const {
    return owned_nodes + ghost_nodes;
  }
};

/// Rows: KAPPA_PAIR_SHIP_COUNTERS.
struct PairShipStats {
  KAPPA_COUNTER_TABLE(PairShipStats, KAPPA_PAIR_SHIP_COUNTERS,
                      KAPPA_COUNTER_ROW)

  void operator+=(const PairShipStats& other) { merge_counters(*this, other); }
};

/// Rows: KAPPA_COARSEN_COUNTERS.
struct CoarsenStats {
  KAPPA_COUNTER_TABLE(CoarsenStats, KAPPA_COARSEN_COUNTERS, KAPPA_COUNTER_ROW)
};

/// Aggregates per-rank communication into one total: every row by its
/// reduction, and the halo breakdown level by level.
[[nodiscard]] inline CommStats total_comm_stats(
    const std::vector<CommStats>& per_rank) {
  CommStats total;
  for (const CommStats& s : per_rank) {
    merge_counters(total, s);
    if (s.halo_per_level.size() > total.halo_per_level.size()) {
      total.halo_per_level.resize(s.halo_per_level.size());
    }
    for (std::size_t l = 0; l < s.halo_per_level.size(); ++l) {
      merge_counters(total.halo_per_level[l], s.halo_per_level[l]);
    }
  }
  return total;
}

}  // namespace kappa
