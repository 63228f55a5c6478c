// Fixture: the same keyed hash lookup outside the level-store files stays
// silent under no-node-hash-in-level-stores (and under
// determinism-sources, which flags only hash-order iteration).
#include "util/seeded_hash.hpp"

namespace kappa {

NodeID shipped_count(NodeID member) {
  hash_map<NodeID, NodeID> shipped;
  shipped[member] = 1;
  return shipped.at(member);
}

}  // namespace kappa
