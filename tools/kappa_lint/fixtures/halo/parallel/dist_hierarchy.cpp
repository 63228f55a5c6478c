// Fixture: a hand-written halo loop in the coarsening layer. Its send and
// receive fire (unsuppressible even with an allow()); the same exchange
// through the peer rendezvous stays silent.
#include <cstdint>
#include <vector>

#include "parallel/pe_runtime.hpp"

namespace kappa {

void hand_written(PEContext& pe, std::vector<std::vector<std::uint64_t>> out,
                  const std::vector<char>& peer) {
  for (int q = 0; q < pe.size(); ++q) {
    if (peer[q]) pe.send(q, std::move(out[q]));  // fires
  }
  for (int q = 0; q < pe.size(); ++q) {
    // kappa-lint: allow(one-halo-exchange, "an allow() must not silence this")
    if (peer[q]) (void)pe.receive(q);  // fires: unsuppressible
  }
}

void rendezvous(PEContext& pe, std::vector<std::vector<std::uint64_t>> out,
                const std::vector<char>& peer) {
  const auto inbox = pe.exchange(std::move(out), &peer);  // silent
  (void)inbox;
}

}  // namespace kappa
