// Fixture: a per-level store that translates ids through node-based hash
// containers and takes its ghost layer in through the hybrid overlay —
// the per-arc hashing the flat id index (util/flat_index.hpp) replaced.
// no-node-hash-in-level-stores flags every such symbol in the level-store
// files; keyed lookups are deterministic, so determinism-sources stays
// silent.
#include <unordered_map>
#include <unordered_set>

#include "graph/dynamic_overlay.hpp"
#include "util/seeded_hash.hpp"

namespace kappa {

struct LevelStore {
  hash_map<NodeID, NodeID> global_to_local;  // fires
  std::unordered_set<NodeID> ghosts;         // fires

  NodeID local_of(NodeID global) const {
    const auto it = global_to_local.find(global);
    return it == global_to_local.end() ? kInvalidNode : it->second;
  }
};

void seal(const StaticGraph& core, NodeID ghost) {
  DynamicOverlay intake(core);  // fires
  intake.add_migrated_node(ghost, 1);
}

}  // namespace kappa
