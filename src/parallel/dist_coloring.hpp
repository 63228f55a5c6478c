/// \file dist_coloring.hpp
/// \brief The §5.1 edge-coloring protocol, executed on the PE runtime.
///
/// This is the message-passing twin of color_quotient_edges(): one PE per
/// block, coin flips, REQUEST(edge, free-list) messages from active PEs,
/// REPLY(min L ∩ L') from passive PEs, rejection between active PEs,
/// rounds until a termination all-reduce reports no uncolored edges.
/// It demonstrates that the coloring needs only *local* synchronization
/// between collaborating PEs (plus the termination detection), exactly as
/// the paper claims. The SPMD refiner does not run it: the quotient graph
/// is replicated on every rank, so each rank draws the identical coloring
/// locally with color_quotient_edges().
#pragma once

#include "graph/quotient_graph.hpp"
#include "parallel/pe_runtime.hpp"
#include "refinement/edge_coloring.hpp"

namespace kappa {

/// Colors the quotient edges with one PE (thread) per block. Returns the
/// coloring plus the aggregated communication statistics of the run.
struct DistributedColoringResult {
  EdgeColoring coloring;
  CommStats comm;
  std::size_t rounds = 0;
};

[[nodiscard]] DistributedColoringResult distributed_color_quotient_edges(
    const QuotientGraph& quotient, std::uint64_t seed);

}  // namespace kappa
