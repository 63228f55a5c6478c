/// \file trace_test.cpp
/// \brief Tests of the observability layer: the per-rank span recorder,
/// the merged Chrome-trace export, the unified metrics registry, and the
/// guarantees the layer makes — the counter table drives aggregation, the
/// rank-snapshot codec and the metrics export for every row, and tracing
/// is observer-only (a traced and an untraced run produce byte-identical
/// partitions, in-process and across forked TCP processes).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>

#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics_export.hpp"
#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "parallel/channel.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/trace_merge.hpp"
#include "parallel/transport_tcp.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace kappa {
namespace {

// ------------------------------------------------------------ recorder ----

TEST(TraceRecorder, NestedSpansRecordContainment) {
  TraceRecorder recorder(16);
  const ThreadTraceScope bind(&recorder);
  {
    TraceSpan outer("outer", 7, 8);
    {
      TraceSpan inner("inner");
      KAPPA_TRACE_INSTANT("tick", 3);
    }
  }
  // Completion order: the instant, then the inner span, then the outer.
  const std::vector<TraceEvent>& events = recorder.read_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "tick");
  EXPECT_EQ(events[0].kind, TraceEventKind::kInstant);
  EXPECT_EQ(events[0].arg0, 3u);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_EQ(events[2].arg0, 7u);
  EXPECT_EQ(events[2].arg1, 8u);
  // The outer interval contains the inner one, which contains the tick.
  const TraceEvent& outer = events[2];
  const TraceEvent& inner = events[1];
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.start_ns + outer.dur_ns, inner.start_ns + inner.dur_ns);
  EXPECT_LE(inner.start_ns, events[0].start_ns);
  EXPECT_EQ(recorder.read_dropped(), 0u);
}

TEST(TraceRecorder, RingOverflowDropsAndCounts) {
  TraceRecorder recorder(4);
  const ThreadTraceScope bind(&recorder);
  for (int i = 0; i < 6; ++i) {
    KAPPA_TRACE_INSTANT("e", static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(recorder.read_events().size(), 4u);
  EXPECT_EQ(recorder.read_dropped(), 2u);
  // The first `capacity` events survive; overflow drops the tail.
  EXPECT_EQ(recorder.read_events()[3].arg0, 3u);
}

TEST(TraceRecorder, UnboundThreadSitesAreNoops) {
  ASSERT_EQ(thread_trace(), nullptr);
  {
    TraceSpan span("ignored");
    KAPPA_TRACE_COUNTER("ignored", 1);
    KAPPA_TRACE_INSTANT("ignored");
  }  // must not crash, must not record anywhere
}

TEST(TraceRecorder, EnvironmentTogglesAndBufferOverride) {
  ASSERT_EQ(::unsetenv("KAPPA_TRACE"), 0);
  EXPECT_FALSE(trace_run_enabled(false));
  EXPECT_TRUE(trace_run_enabled(true));
  ASSERT_EQ(::setenv("KAPPA_TRACE", "1", 1), 0);
  EXPECT_TRUE(trace_run_enabled(false));
  ASSERT_EQ(::setenv("KAPPA_TRACE", "0", 1), 0);
  EXPECT_FALSE(trace_run_enabled(false));
  ASSERT_EQ(::unsetenv("KAPPA_TRACE"), 0);

  ASSERT_EQ(::unsetenv("KAPPA_TRACE_BUFFER"), 0);
  EXPECT_EQ(trace_buffer_capacity(), TraceRecorder::kDefaultCapacity);
  ASSERT_EQ(::setenv("KAPPA_TRACE_BUFFER", "64", 1), 0);
  EXPECT_EQ(trace_buffer_capacity(), 64u);
  ASSERT_EQ(::unsetenv("KAPPA_TRACE_BUFFER"), 0);
}

// ------------------------------------------------------ export helpers ----

/// Structural JSON well-formedness without a parser: every brace/bracket
/// outside string literals balances, and the document is one object.
bool json_balanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

bool has_name(const MergedTrace& trace, const std::string& name) {
  for (const std::string& n : trace.names) {
    if (n == name) return true;
  }
  return false;
}

TEST(ChromeTrace, LocalMergeExportsWellFormedJson) {
  TraceRecorder recorder(16);
  {
    const ThreadTraceScope bind(&recorder);
    TraceSpan span("alpha", 1, 2);
    KAPPA_TRACE_COUNTER("gauge", 41);
    KAPPA_TRACE_INSTANT("mark");
  }
  const MergedTrace merged = merge_local_trace(recorder, 0, 1);
  EXPECT_EQ(merged.num_ranks, 1);
  ASSERT_EQ(merged.dropped_per_rank, std::vector<std::uint64_t>{0});
  EXPECT_TRUE(has_name(merged, "alpha"));
  EXPECT_TRUE(has_name(merged, "gauge"));
  EXPECT_TRUE(has_name(merged, "mark"));

  std::ostringstream out;
  write_chrome_trace(merged, out);
  const std::string json = out.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"num_ranks\":1"), std::string::npos);
}

// ----------------------------------------------------- traced SPMD runs ----

struct CaptureSink final : TraceSink {
  MergedTrace trace;
  int fired = 0;
  void on_trace(const MergedTrace& merged) override {
    trace = merged;
    ++fired;
  }
};

/// Shared p=4 in-process run; tracing toggled by the caller's config.
PartitionResult run_inproc(const StaticGraph& graph, const Config& config,
                           TraceSink* sink) {
  PERuntime runtime(4, config.seed);
  Partitioner partitioner(Context::spmd(config, runtime));
  partitioner.set_trace_sink(sink);
  return partitioner.partition(graph);
}

TEST(TracedRun, InprocMergeCoversEveryRank) {
  const StaticGraph graph = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;
  config.trace_enabled = true;

  CaptureSink sink;
  (void)run_inproc(graph, config, &sink);
  ASSERT_EQ(sink.fired, 1);
  const MergedTrace& trace = sink.trace;
  EXPECT_EQ(trace.num_ranks, 4);
  ASSERT_EQ(trace.dropped_per_rank.size(), 4u);
  for (const std::uint64_t dropped : trace.dropped_per_rank) {
    EXPECT_EQ(dropped, 0u);
  }
  // One process, one steady clock: rank 0's offset is zero by
  // definition and the handshake's estimates for the others are pure
  // scheduling jitter — microseconds, bounded here at 100 ms.
  ASSERT_EQ(trace.clock_offset_ns.size(), 4u);
  EXPECT_EQ(trace.clock_offset_ns[0], 0);
  for (const std::int64_t offset : trace.clock_offset_ns) {
    EXPECT_LT(offset, 100'000'000);
    EXPECT_GT(offset, -100'000'000);
  }

  std::vector<bool> rank_has_events(4, false);
  std::vector<std::uint64_t> last_start(4, 0);
  int last_rank = 0;
  for (const MergedTraceEvent& event : trace.events) {
    ASSERT_GE(event.rank, 0);
    ASSERT_LT(event.rank, 4);
    const auto r = static_cast<std::size_t>(event.rank);
    rank_has_events[r] = true;
    // Sorted by (rank, aligned start): each rank's track is monotone.
    EXPECT_GE(event.rank, last_rank);
    EXPECT_GE(event.start_ns, last_start[r]);
    last_rank = event.rank;
    last_start[r] = event.start_ns;
  }
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_TRUE(rank_has_events[static_cast<std::size_t>(rank)])
        << "rank " << rank << " contributed no events";
  }
  for (const char* name :
       {"phase.coarsen", "phase.initial", "phase.refine", "coarsen.level",
        "refine.iteration"}) {
    EXPECT_TRUE(has_name(trace, name)) << "span name missing: " << name;
  }

  std::ostringstream out;
  write_chrome_trace(trace, out);
  EXPECT_TRUE(json_balanced(out.str()));
}

TEST(TracedRun, UndersizedBufferCountsDropsInsteadOfGrowing) {
  const StaticGraph graph = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;
  config.trace_enabled = true;

  ASSERT_EQ(::setenv("KAPPA_TRACE_BUFFER", "8", 1), 0);
  CaptureSink sink;
  (void)run_inproc(graph, config, &sink);
  ASSERT_EQ(::unsetenv("KAPPA_TRACE_BUFFER"), 0);

  ASSERT_EQ(sink.fired, 1);
  ASSERT_EQ(sink.trace.dropped_per_rank.size(), 4u);
  std::vector<std::size_t> events_per_rank(4, 0);
  for (const MergedTraceEvent& event : sink.trace.events) {
    ++events_per_rank[static_cast<std::size_t>(event.rank)];
  }
  for (int rank = 0; rank < 4; ++rank) {
    const auto r = static_cast<std::size_t>(rank);
    EXPECT_LE(events_per_rank[r], 8u);
    EXPECT_GT(sink.trace.dropped_per_rank[r], 0u)
        << "rank " << rank << " should have overflowed an 8-slot ring";
  }
}

TEST(TracedRun, ObserverOnlyPartitionByteIdentical) {
  const StaticGraph graph = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;

  config.trace_enabled = false;
  const PartitionResult plain = run_inproc(graph, config, nullptr);

  config.trace_enabled = true;
  CaptureSink sink;
  const PartitionResult traced = run_inproc(graph, config, &sink);

  ASSERT_EQ(sink.fired, 1);
  EXPECT_EQ(traced.cut, plain.cut);
  EXPECT_EQ(traced.balance, plain.balance);
  ASSERT_EQ(traced.partition.k(), plain.partition.k());
  for (NodeID u = 0; u < graph.num_nodes(); ++u) {
    ASSERT_EQ(traced.partition.block(u), plain.partition.block(u))
        << "node " << u;
  }
}

// Trace collection ships every rank's buffer to rank 0 after the run; that
// traffic is observation, so a traced run must report exactly the
// deterministic counters of an untraced one, rank by rank.
TEST(TracedRun, CountersExcludeTraceCollection) {
  const StaticGraph graph = grid_graph(16, 16);
  Config config = Config::preset(Preset::kFast, 4);
  config.seed = 1;

  config.trace_enabled = false;
  const PartitionResult plain = run_inproc(graph, config, nullptr);
  config.trace_enabled = true;
  CaptureSink sink;
  const PartitionResult traced = run_inproc(graph, config, &sink);

  ASSERT_EQ(sink.fired, 1);
  ASSERT_EQ(traced.comm_per_pe.size(), 4u);
  ASSERT_EQ(plain.comm_per_pe.size(), 4u);
  for (std::size_t rank = 0; rank < 4; ++rank) {
    const CommStats& a = plain.comm_per_pe[rank];
    const CommStats& b = traced.comm_per_pe[rank];
    CommStats::for_each_counter(
        [&](const char* name, std::uint64_t CommStats::*field, Reduction) {
          const std::string row = name;
          // Timings and the endpoint-measured bytes are not deterministic.
          if (row.find("_ns") != std::string::npos || row == "rounds_waited" ||
              row.rfind("wire_bytes_", 0) == 0 ||
              row.rfind("heartbeat_", 0) == 0) {
            return;
          }
          EXPECT_EQ(b.*field, a.*field) << "rank " << rank << " row " << row;
        });
    ASSERT_EQ(b.halo_per_level.size(), a.halo_per_level.size());
    for (std::size_t l = 0; l < a.halo_per_level.size(); ++l) {
      EXPECT_EQ(b.halo_per_level[l].messages, a.halo_per_level[l].messages);
      EXPECT_EQ(b.halo_per_level[l].words, a.halo_per_level[l].words);
    }
  }
}

// ------------------------------------------------ counter table helpers --

/// Gives every row of \p counters its own value, counting up from \p next.
template <typename Counters>
void fill_distinct(Counters& counters, std::uint64_t& next) {
  Counters::for_each_counter(
      [&](const char*, std::uint64_t Counters::*field, Reduction) {
        counters.*field = next++;
      });
}

/// A snapshot in which every field of every table (and a rank-dependent
/// number of halo levels) holds a value no other field of any rank holds.
RankSnapshot distinct_snapshot(int rank) {
  RankSnapshot snapshot;
  std::uint64_t next = 1000 * static_cast<std::uint64_t>(rank + 1);
  RankSnapshot::for_each_table(
      snapshot, [&](auto& counters) { fill_distinct(counters, next); });
  snapshot.comm.halo_per_level.resize(static_cast<std::size_t>(rank) + 1);
  for (LevelHaloStats& level : snapshot.comm.halo_per_level) {
    fill_distinct(level, next);
  }
  return snapshot;
}

TEST(CollectTrace, RankSnapshotsRoundTripInproc) {
  // Rank 0 must receive every rank's snapshot field for field: a row the
  // codec dropped, reordered or misread shows up as a mismatch.
  constexpr int kRanks = 3;
  PERuntime runtime(kRanks, /*seed=*/1);
  CollectedTrace collected;
  (void)runtime.run([&](PEContext& pe) {
    TraceRecorder recorder(16);
    CollectedTrace mine =
        collect_trace(pe, recorder, distinct_snapshot(pe.rank()));
    if (pe.rank() == 0) collected = std::move(mine);
  });
  ASSERT_EQ(collected.ranks.size(), static_cast<std::size_t>(kRanks));
  for (int q = 0; q < kRanks; ++q) {
    EXPECT_TRUE(collected.ranks[static_cast<std::size_t>(q)] ==
                distinct_snapshot(q))
        << "rank " << q;
  }
}

// -------------------------------------------------- forked TCP tracing ----

std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

TcpOptions local_options(int rank, int num_ranks, std::uint16_t port) {
  TcpOptions options;
  options.rank = rank;
  options.num_ranks = num_ranks;
  options.rendezvous_host = "127.0.0.1";
  options.rendezvous_port = port;
  options.connect_timeout_ms = 20000;
  options.recv_timeout_ms = 120000;
  return options;
}

std::vector<int> spawn_ranks(int num_ranks,
                             const std::function<int(int)>& body) {
  std::vector<pid_t> pids(static_cast<std::size_t>(num_ranks), -1);
  for (int rank = 0; rank < num_ranks; ++rank) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      int code = 43;
      try {
        code = body(rank);
      } catch (const TransportError&) {
        code = 42;
      } catch (...) {
      }
      std::_Exit(code);
    }
    EXPECT_GT(pid, 0);
    pids[static_cast<std::size_t>(rank)] = pid;
  }
  std::vector<int> codes(static_cast<std::size_t>(num_ranks), -1);
  for (int rank = 0; rank < num_ranks; ++rank) {
    int status = 0;
    EXPECT_EQ(::waitpid(pids[static_cast<std::size_t>(rank)], &status, 0),
              pids[static_cast<std::size_t>(rank)]);
    codes[static_cast<std::size_t>(rank)] =
        WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return codes;
}

TEST(TracedRun, TcpProcessesMergeOnRankZeroWithAlignedClocks) {
  // Four localhost processes, one traced run: the sink must fire exactly
  // once (on the rank-0 process), the merged trace must carry clock-
  // aligned, sorted events from every rank, and no ring may overflow.
  // Non-zero exit codes name the failed check.
  const StaticGraph graph = make_instance("rgg14", 11);
  const std::uint16_t port = pick_free_port();
  const auto codes = spawn_ranks(4, [&](int rank) -> int {
    Config config = Config::preset(Preset::kMinimal, 8);
    config.seed = 42;
    config.trace_enabled = true;
    PERuntime runtime(make_tcp_fabric(local_options(rank, 4, port)),
                      config.seed);
    CaptureSink sink;
    Partitioner partitioner(Context::spmd(config, runtime));
    partitioner.set_trace_sink(&sink);
    (void)partitioner.partition(graph);
    if (rank != 0) return sink.fired == 0 ? 0 : 50;
    if (sink.fired != 1) return 51;
    const MergedTrace& trace = sink.trace;
    if (trace.num_ranks != 4) return 52;
    if (trace.dropped_per_rank.size() != 4 ||
        trace.clock_offset_ns.size() != 4) {
      return 53;
    }
    for (const std::uint64_t dropped : trace.dropped_per_rank) {
      if (dropped != 0) return 54;
    }
    std::vector<bool> seen(4, false);
    std::vector<std::uint64_t> last_start(4, 0);
    int last_rank = 0;
    for (const MergedTraceEvent& event : trace.events) {
      if (event.rank < 0 || event.rank >= 4) return 55;
      const auto r = static_cast<std::size_t>(event.rank);
      seen[r] = true;
      // Sorted by (rank, start) with starts on rank 0's clock: each
      // rank's track must be monotone after offset alignment.
      if (event.rank < last_rank) return 56;
      if (event.start_ns < last_start[r]) return 56;
      last_rank = event.rank;
      last_start[r] = event.start_ns;
    }
    for (const bool s : seen) {
      if (!s) return 57;
    }
    for (const char* name : {"phase.coarsen", "phase.initial",
                             "phase.refine"}) {
      bool found = false;
      for (const std::string& n : trace.names) found |= (n == name);
      if (!found) return 58;
    }
    return 0;
  });
  EXPECT_EQ(codes, (std::vector<int>{0, 0, 0, 0}));
}

// ---------------------------------------------------- metrics registry ----

/// Every row of \p Counters is exported as prefix + name (the total) and
/// prefix + "per_rank." + name (one value per rank).
template <typename Counters>
void expect_rows_exported(const MetricsRegistry& registry,
                          const std::string& prefix, const Counters& total,
                          const std::vector<Counters>& per_rank) {
  Counters::for_each_counter([&](const char* name,
                                 std::uint64_t Counters::*field, Reduction) {
    EXPECT_EQ(registry.u64(prefix + name), total.*field) << prefix << name;
    const std::vector<std::uint64_t>& list =
        registry.u64_list(prefix + "per_rank." + name);
    ASSERT_EQ(list.size(), per_rank.size()) << prefix << name;
    for (std::size_t r = 0; r < list.size(); ++r) {
      EXPECT_EQ(list[r], per_rank[r].*field) << prefix << name << " " << r;
    }
  });
}

/// Every row of \p Counters is exported as the list prefix + name + suffix
/// over \p items.
template <typename Counters>
void expect_row_lists_exported(const MetricsRegistry& registry,
                               const std::string& prefix,
                               const std::string& suffix,
                               const std::vector<Counters>& items) {
  Counters::for_each_counter([&](const char* name,
                                 std::uint64_t Counters::*field, Reduction) {
    const std::vector<std::uint64_t>& list =
        registry.u64_list(prefix + name + suffix);
    ASSERT_EQ(list.size(), items.size()) << prefix << name << suffix;
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_EQ(list[i], items[i].*field) << prefix << name << suffix;
    }
  });
}

TEST(MetricsRegistry, MatchesLegacyResultCounters) {
  // The registry is a renaming, never a recomputation: every exported
  // value must equal the PartitionResult field it came from.
  const StaticGraph graph = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 3;
  PERuntime runtime(4, config.seed);
  const PartitionResult result =
      Partitioner(Context::spmd(config, runtime)).partition(graph);

  const MetricsRegistry registry =
      metrics_from_result(result, config, runtime.backend());

  EXPECT_EQ(registry.str("run.backend"), runtime.backend());
  EXPECT_EQ(registry.u64("run.k"), static_cast<std::uint64_t>(config.k));
  EXPECT_EQ(registry.u64("run.seed"), config.seed);
  EXPECT_EQ(registry.u64("run.num_pes"), 4u);

  EXPECT_EQ(registry.i64("partition.cut"), result.cut);
  EXPECT_EQ(registry.f64("partition.balance"), result.balance);
  EXPECT_EQ(registry.u64("partition.feasible"), result.balanced ? 1u : 0u);

  EXPECT_EQ(registry.f64("time.total_s"), result.total_time);
  EXPECT_EQ(registry.f64("time.coarsen_s"), result.coarsening_time);
  EXPECT_EQ(registry.u64("hierarchy.levels"), result.hierarchy_levels);
  EXPECT_EQ(registry.u64_list("hierarchy.level_nodes").size(),
            result.hierarchy_level_nodes.size());

  EXPECT_EQ(registry.u64("comm.messages_sent"), result.comm.messages_sent);
  EXPECT_EQ(registry.u64("comm.words_sent"), result.comm.words_sent);
  EXPECT_EQ(registry.u64("comm.messages_received"),
            result.comm.messages_received);
  EXPECT_EQ(registry.u64("comm.words_received"), result.comm.words_received);
  EXPECT_EQ(registry.u64("comm.barriers"), result.comm.barriers);
  const std::vector<std::uint64_t>& words_per_rank =
      registry.u64_list("comm.per_rank.words_sent");
  ASSERT_EQ(words_per_rank.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(words_per_rank[r], result.comm_per_pe[r].words_sent);
  }
  EXPECT_EQ(registry.u64_list("comm.halo.messages_per_level").size(),
            result.comm.halo_per_level.size());

  PairShipStats ship_total;
  for (const PairShipStats& s : result.pair_ship_per_pe) ship_total += s;
  EXPECT_EQ(registry.u64("ship.pairs_executed"), ship_total.pairs_executed);
  EXPECT_EQ(registry.u64("ship.rows_shipped"), ship_total.rows_shipped);

  EXPECT_EQ(registry.u64_list("memory.shard.owned_per_rank").size(), 4u);

  // Table-driven: every row of every counter table under its key.
  expect_rows_exported(registry, "comm.", result.comm, result.comm_per_pe);
  expect_row_lists_exported(registry, "comm.halo.", "_per_level",
                            result.comm.halo_per_level);
  expect_rows_exported(registry, "ship.", ship_total,
                       result.pair_ship_per_pe);
  expect_rows_exported(registry, "coarsen.",
                       total_counters(result.coarsen_per_pe),
                       result.coarsen_per_pe);
  expect_row_lists_exported(registry, "memory.shard.", "_per_rank",
                            result.shard_memory_per_pe);
  expect_row_lists_exported(registry, "memory.hierarchy.", "_per_rank",
                            result.hierarchy_memory_per_pe);
  expect_row_lists_exported(registry, "memory.partition.", "_per_rank",
                            result.partition_memory_per_pe);
  // The derived lists, and the coarsening rows carry real counts.
  ASSERT_EQ(registry.u64_list("memory.partition.resident_per_rank").size(),
            4u);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(registry.u64_list("comm.per_rank.idle_ns")[r],
              result.comm_per_pe[r].idle_ns());
    EXPECT_EQ(registry.u64_list("memory.hierarchy.resident_nodes_per_rank")[r],
              result.hierarchy_memory_per_pe[r].resident_nodes());
    EXPECT_EQ(registry.u64_list("memory.partition.resident_per_rank")[r],
              result.partition_memory_per_pe[r].resident_nodes());
  }
  EXPECT_GT(registry.u64("coarsen.local_pairs"), 0u);
  EXPECT_GT(registry.u64("coarsen.gap_rounds"), 0u);

  // In a closed run every delivered message was sent by someone: the
  // receive-side totals mirror the send-side totals over all ranks.
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (const CommStats& s : result.comm_per_pe) {
    sent += s.messages_sent;
    received += s.messages_received;
  }
  EXPECT_EQ(sent, received);

  std::ostringstream out;
  registry.write_json(out);
  EXPECT_TRUE(json_balanced(out.str()));
}

// ------------------------------------------------- counter aggregation ----

/// \p total must be \p a and \p b merged row by row under each row's
/// table reduction.
template <typename Counters>
void expect_merged(const Counters& a, const Counters& b,
                   const Counters& total) {
  Counters::for_each_counter([&](const char* name,
                                 std::uint64_t Counters::*field,
                                 Reduction reduction) {
    const std::uint64_t want = reduction == Reduction::kSum
                                   ? a.*field + b.*field
                                   : std::max(a.*field, b.*field);
    EXPECT_EQ(total.*field, want) << name;
  });
}

/// Checks \p merge on two operands with distinct rows in both orders, so
/// that a max row must keep the larger value whether it came first or
/// second: neither last-wins nor first-wins passes for both.
template <typename Counters, typename Merge>
void expect_merges_both_ways(std::uint64_t& next, Merge merge) {
  Counters smaller;
  Counters larger;
  fill_distinct(smaller, next);
  fill_distinct(larger, next);
  expect_merged(smaller, larger, merge(smaller, larger));
  expect_merged(larger, smaller, merge(larger, smaller));
}

TEST(TotalCommStats, AggregatesEveryField) {
  // Every row of every table, each side with values no other row holds.
  std::uint64_t next = 1;
  CommStats a;
  CommStats b;
  fill_distinct(b, next);
  fill_distinct(a, next);
  a.halo_per_level = {{100, 200}};
  b.halo_per_level = {{1000, 2000}, {1, 2}};

  for (const CommStats& total :
       {total_comm_stats({a, b}), total_comm_stats({b, a})}) {
    expect_merged(a, b, total);
    // Ranks pass each barrier together: the aggregate is the max, not
    // the sum, and not whichever rank came last (a's count is larger).
    ASSERT_GT(a.barriers, b.barriers);
    EXPECT_EQ(total.barriers, a.barriers);
    EXPECT_EQ(total.idle_ns(), a.idle_ns() + b.idle_ns());
    ASSERT_EQ(total.halo_per_level.size(), 2u);
    EXPECT_EQ(total.halo_per_level[0].messages, 1100u);
    EXPECT_EQ(total.halo_per_level[0].words, 2200u);
    EXPECT_EQ(total.halo_per_level[1].messages, 1u);
    EXPECT_EQ(total.halo_per_level[1].words, 2u);
  }

  expect_merges_both_ways<PairShipStats>(
      next, [](PairShipStats x, const PairShipStats& y) {
        x += y;
        return x;
      });
  expect_merges_both_ways<CoarsenStats>(
      next, [](const CoarsenStats& x, const CoarsenStats& y) {
        return total_counters<CoarsenStats>({x, y});
      });
  expect_merges_both_ways<ShardFootprint>(
      next, [](ShardFootprint x, const ShardFootprint& y) {
        x.merge_peak(y);
        return x;
      });
}

TEST(MetricsRegistry, ExportsThePinnedKeySet) {
  // The exported names are the kappa.metrics.v1 schema that dashboards
  // and diffs read. Most come from counter-table field names, so a field
  // rename would silently rename a published key; this literal list makes
  // every schema change a deliberate edit here.
  const std::vector<std::string> expected = {
      "coarsen.gap_pairs",
      "coarsen.gap_rounds",
      "coarsen.local_pairs",
      "coarsen.per_rank.gap_pairs",
      "coarsen.per_rank.gap_rounds",
      "coarsen.per_rank.local_pairs",
      "comm.barriers",
      "comm.collective_idle_ns",
      "comm.halo.messages_per_level",
      "comm.halo.words_per_level",
      "comm.heartbeat_frames_sent",
      "comm.heartbeat_words_sent",
      "comm.messages_received",
      "comm.messages_sent",
      "comm.per_rank.barriers",
      "comm.per_rank.collective_idle_ns",
      "comm.per_rank.heartbeat_frames_sent",
      "comm.per_rank.heartbeat_words_sent",
      "comm.per_rank.idle_ns",
      "comm.per_rank.messages_received",
      "comm.per_rank.messages_sent",
      "comm.per_rank.recv_idle_ns",
      "comm.per_rank.rounds_waited",
      "comm.per_rank.wire_bytes_received",
      "comm.per_rank.wire_bytes_sent",
      "comm.per_rank.words_received",
      "comm.per_rank.words_sent",
      "comm.recv_idle_ns",
      "comm.rounds_waited",
      "comm.wire_bytes_received",
      "comm.wire_bytes_sent",
      "comm.words_received",
      "comm.words_sent",
      "hierarchy.coarsest_nodes",
      "hierarchy.level_nodes",
      "hierarchy.levels",
      "memory.hierarchy.arcs_per_rank",
      "memory.hierarchy.ghost_per_rank",
      "memory.hierarchy.owned_per_rank",
      "memory.hierarchy.resident_nodes_per_rank",
      "memory.partition.arcs_per_rank",
      "memory.partition.ghost_per_rank",
      "memory.partition.owned_per_rank",
      "memory.partition.resident_per_rank",
      "memory.shard.arcs_per_rank",
      "memory.shard.ghost_per_rank",
      "memory.shard.owned_per_rank",
      "partition.balance",
      "partition.cut",
      "partition.feasible",
      "repartition.initial_cut",
      "repartition.migrated_edges_per_rank",
      "repartition.migrated_nodes",
      "repartition.migrated_per_rank",
      "run.backend",
      "run.eps",
      "run.k",
      "run.num_pes",
      "run.seed",
      "ship.pairs_executed",
      "ship.pairs_shipped",
      "ship.per_rank.pairs_executed",
      "ship.per_rank.pairs_shipped",
      "ship.per_rank.rows_shipped",
      "ship.per_rank.whole_block_rows",
      "ship.per_rank.words_shipped",
      "ship.rows_shipped",
      "ship.whole_block_rows",
      "ship.words_shipped",
      "time.coarsen_s",
      "time.initial_s",
      "time.refine_s",
      "time.total_s",
  };
  // The key set does not depend on the run: an empty result exports it.
  const MetricsRegistry registry =
      metrics_from_result(PartitionResult{}, Config::preset(Preset::kFast, 2),
                          "inproc");
  EXPECT_EQ(registry.names(), expected);
}

}  // namespace
}  // namespace kappa
