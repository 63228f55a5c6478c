/// \file partitioner.cpp
/// \brief The unified entry point: both workloads (from-scratch and
/// warm-started) in both execution contexts (sequential and SPMD) through
/// the one shared run_multilevel() driver.
#include "core/partitioner.hpp"

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/phases.hpp"
#include "graph/dynamic_overlay.hpp"
#include "graph/metrics.hpp"
#include "graph/subgraph.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/spmd_phases.hpp"
#include "parallel/trace_merge.hpp"
#include "parallel/watch.hpp"
#include "util/progress.hpp"
#include "util/random.hpp"
#include "util/trace.hpp"

namespace kappa {

/// One PE's post-repartitioning data migration, materialized with the
/// §5.2 hybrid graph structure: the nodes a rank keeps (same owned block
/// before and after) form the static CSR core; every node that migrated
/// *into* one of its blocks lands in the DynamicOverlay's hash-addressed
/// secondary edge array, with the arcs that connect it to the rank's
/// view. The overlay's edge accounting is the point: the intake *volume*
/// (how many adjacency entries accompany the migrated nodes) is not
/// derivable from the node diff alone. Runs once per repartition.
MigrationIntake receive_migrated_nodes(const StaticGraph& graph,
                                       const Partition& before,
                                       const Partition& after, int rank,
                                       int num_pes) {
  std::vector<NodeID> kept;
  std::vector<NodeID> incoming;
  for (NodeID u = 0; u < graph.num_nodes(); ++u) {
    if (BlockRowShard::owner_of_block(after.block(u), num_pes) != rank) {
      continue;
    }
    if (after.block(u) == before.block(u)) {
      kept.push_back(u);
    } else {
      incoming.push_back(u);
    }
  }

  const Subgraph core = induced_subgraph(graph, kept);
  DynamicOverlay view(core.graph, core.local_to_global);
  for (const NodeID u : incoming) {
    view.add_migrated_node(u, graph.node_weight(u));
  }
  for (const NodeID u : incoming) {
    for (EdgeID e = graph.first_arc(u); e < graph.last_arc(u); ++e) {
      const NodeID v = graph.arc_target(e);
      if (view.contains(v)) {
        view.add_migrated_edge(u, v, graph.arc_weight(e));
      }
    }
  }
  return {static_cast<NodeID>(view.num_migrated()),
          view.num_overlay_edges()};
}

namespace {

/// Fills the repartitioning delta fields of \p result against the input
/// assignment.
void record_migration(const StaticGraph& graph, const Partition& current,
                      EdgeWeight input_cut, PartitionResult& result) {
  result.initial_cut = input_cut;
  result.migrated_nodes = 0;
  for (NodeID u = 0; u < graph.num_nodes(); ++u) {
    if (result.partition.block(u) != current.block(u)) {
      ++result.migrated_nodes;
    }
  }
}

PartitionResult run_sequential(const StaticGraph& graph, const Config& config,
                               const Partition* warm, TraceSink* sink) {
  const bool tracing = trace_run_enabled(config.trace_enabled);
  TraceRecorder recorder(tracing ? trace_buffer_capacity() : 1);
  const ThreadTraceScope bind_trace(tracing ? &recorder : nullptr);
  const Rng rng(config.seed);
  SequentialCoarsener coarsener(config, rng, warm);
  SequentialRefiner refiner(graph, config, rng);
  PartitionResult result;
  if (warm != nullptr) {
    WarmStartInitialPartitioner initial(*warm, config.k);
    result = run_multilevel(graph, config, coarsener, initial, refiner);
  } else {
    SequentialInitialPartitioner initial(config, rng);
    result = run_multilevel(graph, config, coarsener, initial, refiner);
  }
  if (tracing && sink != nullptr) {
    sink->on_trace(merge_local_trace(recorder, /*rank=*/0, /*num_ranks=*/1));
  }
  return result;
}

PartitionResult run_spmd(const StaticGraph& graph, const Config& config,
                         PERuntime& runtime, const Partition* warm,
                         TraceSink* sink) {
  const int p = runtime.num_pes();
  const bool tracing = trace_run_enabled(config.trace_enabled);
  PartitionResult result;
  std::vector<MigrationIntake> intake(p);
  // Every counter of each rank; a rank's thread fills its own slot.
  std::vector<RankSnapshot> counters(p);
  // Populated by the global rank 0 thread iff tracing (empty elsewhere —
  // on a multi-process fabric only the process hosting rank 0 gets it).
  CollectedTrace collected;

  // kappa-watch: boards live in THIS scope, outside the per-rank lambda,
  // because rank q's thread may finish while another rank's sampler is
  // still reading q's board through the in-process registry.
  const WatchOptions watch =
      resolve_watch_options(config.watch_out, config.stall_timeout_ms,
                            config.watch_interval_ms,
                            config.heartbeat_interval_ms);
  std::vector<ProgressBoard> boards(
      watch.enabled() ? static_cast<std::size_t>(p) : 0);
  std::string watch_path = watch.snapshot_path;
  if (!watch_path.empty() && runtime.primary_rank() != 0) {
    // Multi-process fabric, secondary process: keep rank 0's file name for
    // the sampler's stream and give this process's stall reports (the only
    // records it can emit) a sibling file, like the metrics export does.
    watch_path += ".rank" + std::to_string(runtime.primary_rank());
  }
  const std::unique_ptr<WatchSink> watch_sink =
      watch.enabled() ? std::make_unique<WatchSink>(watch_path) : nullptr;

  runtime.run([&](PEContext& pe) {
    TraceRecorder recorder(tracing ? trace_buffer_capacity() : 1);
    const ThreadTraceScope bind_trace(tracing ? &recorder : nullptr);
    ProgressBoard* board =
        boards.empty() ? nullptr : &boards[static_cast<std::size_t>(pe.rank())];
    const ThreadProgressScope bind_progress(board);
    // Destroyed before the scopes above unwind: the watchdog and sampler
    // threads stop (and the transport's heartbeats with them) while the
    // board and the PE context are still fully alive.
    std::optional<RankWatch> rank_watch;
    if (board != nullptr) {
      progress_phase(ProgressPhase::kIdle);
      rank_watch.emplace(pe, *board, watch, watch_sink.get(),
                         /*run_sampler=*/pe.rank() == 0);
    }
    SpmdCoarsener coarsener(config, pe, warm);
    SpmdRefiner refiner(graph, config, pe, warm);
    PartitionResult local;
    if (warm != nullptr) {
      WarmStartInitialPartitioner initial(*warm, config.k);
      local = run_multilevel_spmd(graph, config, coarsener, initial, refiner);
      // Shard-local migration view, sealed from the refiner's
      // incrementally maintained finest-level store (each block's delta
      // is accounted at its owning rank, with membership read off the
      // store itself).
      intake[pe.rank()] = refiner.migration_intake();
    } else {
      SpmdInitialPartitioner initial(config, pe);
      local = run_multilevel_spmd(graph, config, coarsener, initial, refiner);
    }
    // Peak resident graph data of this rank across both sharded phases,
    // plus the resident hierarchy store (all levels stay sharded) and the
    // sharded partition state.
    RankSnapshot& mine = counters[pe.rank()];
    mine.shard_memory = coarsener.stats().footprint;
    mine.shard_memory.merge_peak(refiner.footprint());
    mine.hierarchy_memory = coarsener.stats().hierarchy_resident;
    mine.partition_memory = refiner.partition_footprint();
    mine.pair_ship = refiner.ship_stats();
    mine.coarsen = coarsener.stats().matching;
    // Every rank materializes the identical partition; the runtime's
    // primary (lowest locally hosted) rank keeps it — rank 0 in-process,
    // this process's own rank on a multi-process fabric.
    if (pe.rank() == runtime.primary_rank()) result = std::move(local);
    // The run's counters end here: the trace collection below is
    // observation, and an untraced run must report the same counts.
    mine.comm = pe.stats();
    if (tracing) {
      // The partition is already materialized — everything from here on
      // is observation and cannot feed back into it.
      CollectedTrace gathered = collect_trace(pe, recorder, mine);
      if (pe.rank() == 0) collected = std::move(gathered);
    }
  });

  // Local ranks report their own snapshots (trace collection excluded);
  // a multi-process fabric learns the other ranks' counters only from
  // the snapshots gathered on rank 0, so rank 0's result (and any
  // metrics built from it) is as complete as an in-process run's.
  std::vector<bool> hosted(static_cast<std::size_t>(p), false);
  for (const int q : runtime.local_ranks()) {
    hosted[static_cast<std::size_t>(q)] = true;
  }
  if (!collected.ranks.empty()) {
    for (int q = 0; q < p; ++q) {
      if (!hosted[q]) counters[q] = collected.ranks[q];
    }
  }
  result.num_pes = p;
  for (const RankSnapshot& rank : counters) {
    result.comm_per_pe.push_back(rank.comm);
    result.shard_memory_per_pe.push_back(rank.shard_memory);
    result.hierarchy_memory_per_pe.push_back(rank.hierarchy_memory);
    result.partition_memory_per_pe.push_back(rank.partition_memory);
    result.pair_ship_per_pe.push_back(rank.pair_ship);
    result.coarsen_per_pe.push_back(rank.coarsen);
  }
  result.comm = total_comm_stats(result.comm_per_pe);
  if (warm != nullptr) {
    result.migrated_per_pe.reserve(p);
    result.migrated_edges_per_pe.reserve(p);
    for (const MigrationIntake& i : intake) {
      result.migrated_per_pe.push_back(i.nodes);
      result.migrated_edges_per_pe.push_back(i.edges);
    }
  }
  if (!collected.ranks.empty() && sink != nullptr) {
    sink->on_trace(collected.trace);
  }
  return result;
}

}  // namespace

PartitionResult Partitioner::partition(const StaticGraph& graph) const {
  if (context_.is_spmd()) {
    return run_spmd(graph, context_.config(), *context_.runtime(), nullptr,
                    trace_sink_);
  }
  return run_sequential(graph, context_.config(), nullptr, trace_sink_);
}

PartitionResult Partitioner::repartition(const StaticGraph& graph,
                                         const Partition& current) const {
  assert(current.k() == context_.config().k);
  const EdgeWeight input_cut = edge_cut(graph, current);
  PartitionResult result =
      context_.is_spmd()
          ? run_spmd(graph, context_.config(), *context_.runtime(), &current,
                     trace_sink_)
          : run_sequential(graph, context_.config(), &current, trace_sink_);
  record_migration(graph, current, input_cut, result);
  return result;
}

}  // namespace kappa
