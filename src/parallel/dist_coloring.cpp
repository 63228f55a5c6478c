#include "parallel/dist_coloring.hpp"

#include <atomic>
#include <algorithm>
#include <vector>

#include "util/trace.hpp"

namespace kappa {

namespace {

// Message types of the protocol.
constexpr std::uint64_t kNone = 0;     ///< nothing this round
constexpr std::uint64_t kRequest = 1;  ///< [type, edge, freelist words...]
constexpr std::uint64_t kReply = 2;    ///< [type, edge, color]
constexpr std::uint64_t kReject = 3;   ///< [type]

/// Free lists travel as fixed-size bitmaps; 2k colors upper-bounds any
/// greedy edge coloring of a k-node quotient graph.
std::size_t bitmap_words(BlockID k) { return (2 * k + 63) / 64; }

void set_bit(std::vector<std::uint64_t>& bitmap, int bit) {
  bitmap[bit / 64] |= std::uint64_t{1} << (bit % 64);
}

bool test_bit(const std::vector<std::uint64_t>& bitmap, int bit) {
  return (bitmap[bit / 64] >> (bit % 64)) & 1;
}

}  // namespace

DistributedColoringResult distributed_color_quotient_edges(
    const QuotientGraph& quotient, std::uint64_t seed) {
  const BlockID k = quotient.num_blocks();
  const std::size_t num_edges = quotient.edges().size();

  DistributedColoringResult result;
  result.coloring.color_of_edge.assign(num_edges, -1);
  if (num_edges == 0 || k == 0) return result;

  // Final colors, written once per edge by the passive endpoint. Atomics
  // only because two PEs of one pair both learn the color; they always
  // agree.
  std::vector<std::atomic<int>> final_color(num_edges);
  for (auto& c : final_color) c.store(-1, std::memory_order_relaxed);
  std::atomic<std::size_t> round_count{0};

  PERuntime runtime(static_cast<int>(k), seed);
  result.comm = total_comm_stats(runtime.run([&](PEContext& pe) {
    const BlockID self = static_cast<BlockID>(pe.rank());
    const std::size_t words = bitmap_words(k);

    // Q-neighbors of this block, in deterministic order.
    std::vector<BlockID> neighbors;
    for (const std::size_t e : quotient.incident(self)) {
      const QuotientEdge& edge = quotient.edges()[e];
      neighbors.push_back(edge.a == self ? edge.b : edge.a);
    }
    std::vector<std::size_t> incident = quotient.incident(self);

    std::vector<std::uint64_t> used(words, 0);  // complement of L(self)
    std::vector<int> local_color(incident.size(), -1);
    std::size_t rounds = 0;

    while (true) {
      // --- Termination detection. ---
      std::uint64_t uncolored = 0;
      for (const int c : local_color) uncolored += (c == -1) ? 1 : 0;
      if (pe.all_reduce_sum(uncolored) == 0) break;
      ++rounds;
      KAPPA_TRACE_SPAN("color.round", static_cast<std::uint64_t>(rounds),
                       uncolored);

      // --- Coin flip: active or passive (§5.1). ---
      const bool active = pe.rng().coin();

      // --- Phase A: active PEs request one random uncolored edge. ---
      std::size_t request_slot = incident.size();
      if (active && uncolored > 0) {
        std::vector<std::size_t> candidates;
        for (std::size_t i = 0; i < incident.size(); ++i) {
          if (local_color[i] == -1) candidates.push_back(i);
        }
        request_slot = candidates[pe.rng().bounded(candidates.size())];
      }
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        if (i == request_slot) {
          std::vector<std::uint64_t> msg;
          msg.reserve(2 + words);
          msg.push_back(kRequest);
          msg.push_back(incident[i]);
          msg.insert(msg.end(), used.begin(), used.end());
          pe.send(neighbors[i], std::move(msg));
        } else {
          pe.send(neighbors[i], {kNone});
        }
      }

      // --- Receive one message per neighbor; passive PEs serve
      // requests with c = min(L ∩ L'). ---
      struct PendingReply {
        BlockID to;
        std::vector<std::uint64_t> msg;
      };
      std::vector<PendingReply> replies;
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        const Message msg = pe.receive(neighbors[i]);
        if (msg.payload[0] != kRequest) continue;
        const std::size_t edge_index = msg.payload[1];
        if (active) {
          // Requests sent to other active PEs are rejected (§5.1).
          replies.push_back({neighbors[i], {kReject}});
          continue;
        }
        // Requester's used-bitmap follows in the payload.
        std::vector<std::uint64_t> requester_used(
            msg.payload.begin() + 2, msg.payload.begin() + 2 + words);
        int color = 0;
        while (test_bit(used, color) || test_bit(requester_used, color)) {
          ++color;
        }
        set_bit(used, color);
        // Record locally: find the slot of this edge.
        for (std::size_t j = 0; j < incident.size(); ++j) {
          if (incident[j] == edge_index) local_color[j] = color;
        }
        final_color[edge_index].store(color, std::memory_order_relaxed);
        replies.push_back(
            {neighbors[i], {kReply, edge_index, static_cast<std::uint64_t>(color)}});
      }

      // --- Phase B: responses. ---
      for (auto& reply : replies) {
        pe.send(reply.to, std::move(reply.msg));
      }
      if (request_slot != incident.size()) {
        const Message response = pe.receive(neighbors[request_slot]);
        if (response.payload[0] == kReply) {
          const int color = static_cast<int>(response.payload[2]);
          local_color[request_slot] = color;
          set_bit(used, color);
        }
      }
    }

    if (pe.rank() == 0) {
      round_count.store(rounds, std::memory_order_relaxed);
    }
  }));

  result.rounds = round_count.load();
  for (std::size_t e = 0; e < num_edges; ++e) {
    const int c = final_color[e].load(std::memory_order_relaxed);
    result.coloring.color_of_edge[e] = c;
    result.coloring.num_colors = std::max(result.coloring.num_colors, c + 1);
  }
  return result;
}

}  // namespace kappa
