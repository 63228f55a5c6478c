/// \file metrics_export.cpp
/// \brief PartitionResult -> MetricsRegistry flattening.
#include "core/metrics_export.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace kappa {

namespace {

/// Sets prefix + name + suffix, for every row of \p Counters, to the list
/// of that row over \p items (ranks, or halo levels).
template <typename Counters>
void set_row_lists(MetricsRegistry& registry, const std::string& prefix,
                   const std::string& suffix,
                   const std::vector<Counters>& items) {
  Counters::for_each_counter(
      [&](const char* name, std::uint64_t Counters::*field, Reduction) {
        std::vector<std::uint64_t> values;
        values.reserve(items.size());
        for (const Counters& item : items) values.push_back(item.*field);
        registry.set_u64_list(prefix + name + suffix, std::move(values));
      });
}

/// Sets prefix + name to \p total's value and prefix + "per_rank." +
/// name to the per-rank list, for every row of \p Counters.
template <typename Counters>
void set_rows(MetricsRegistry& registry, const std::string& prefix,
              const Counters& total, const std::vector<Counters>& per_rank) {
  Counters::for_each_counter(
      [&](const char* name, std::uint64_t Counters::*field, Reduction) {
        registry.set_u64(prefix + name, total.*field);
      });
  set_row_lists(registry, prefix + "per_rank.", "", per_rank);
}

/// Sets \p key to one derived value per element of \p items.
template <typename Item, typename Derive>
void set_derived_list(MetricsRegistry& registry, const std::string& key,
                      const std::vector<Item>& items, Derive derive) {
  std::vector<std::uint64_t> values;
  values.reserve(items.size());
  for (const Item& item : items) values.push_back(derive(item));
  registry.set_u64_list(key, std::move(values));
}

}  // namespace

MetricsRegistry metrics_from_result(const PartitionResult& result,
                                    const Config& config,
                                    const std::string& backend) {
  MetricsRegistry registry;

  registry.set_u64("run.k", config.k);
  registry.set_f64("run.eps", config.eps);
  registry.set_u64("run.seed", config.seed);
  registry.set_u64("run.num_pes",
                   static_cast<std::uint64_t>(result.num_pes));
  registry.set_str("run.backend", backend);

  registry.set_i64("partition.cut", result.cut);
  registry.set_f64("partition.balance", result.balance);
  registry.set_u64("partition.feasible", result.balanced ? 1 : 0);

  registry.set_i64("repartition.initial_cut", result.initial_cut);
  registry.set_u64("repartition.migrated_nodes", result.migrated_nodes);
  const auto widen = [](auto value) {
    return static_cast<std::uint64_t>(value);
  };
  set_derived_list(registry, "repartition.migrated_per_rank",
                   result.migrated_per_pe, widen);
  set_derived_list(registry, "repartition.migrated_edges_per_rank",
                   result.migrated_edges_per_pe, widen);

  registry.set_f64("time.total_s", result.total_time);
  registry.set_f64("time.coarsen_s", result.coarsening_time);
  registry.set_f64("time.initial_s", result.initial_time);
  registry.set_f64("time.refine_s", result.refinement_time);

  registry.set_u64("hierarchy.levels", result.hierarchy_levels);
  registry.set_u64("hierarchy.coarsest_nodes", result.coarsest_nodes);
  set_derived_list(registry, "hierarchy.level_nodes",
                   result.hierarchy_level_nodes, widen);

  set_rows(registry, "comm.", result.comm, result.comm_per_pe);
  set_derived_list(registry, "comm.per_rank.idle_ns", result.comm_per_pe,
                   [](const CommStats& s) { return s.idle_ns(); });
  set_row_lists(registry, "comm.halo.", "_per_level",
                result.comm.halo_per_level);

  set_rows(registry, "ship.", total_counters(result.pair_ship_per_pe),
           result.pair_ship_per_pe);
  set_rows(registry, "coarsen.", total_counters(result.coarsen_per_pe),
           result.coarsen_per_pe);

  set_row_lists(registry, "memory.shard.", "_per_rank",
                result.shard_memory_per_pe);
  set_row_lists(registry, "memory.hierarchy.", "_per_rank",
                result.hierarchy_memory_per_pe);
  set_row_lists(registry, "memory.partition.", "_per_rank",
                result.partition_memory_per_pe);
  const auto resident = [](const ShardFootprint& f) {
    return f.resident_nodes();
  };
  set_derived_list(registry, "memory.hierarchy.resident_nodes_per_rank",
                   result.hierarchy_memory_per_pe, resident);
  set_derived_list(registry, "memory.partition.resident_per_rank",
                   result.partition_memory_per_pe, resident);

  return registry;
}

}  // namespace kappa
