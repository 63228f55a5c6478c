/// \file golden_counters_test.cpp
/// \brief The golden-counter gate: the deterministic counters of a small
/// run matrix, compared against tests/data/golden_counters.json.
///
/// Wall-clock on a shared host cannot resolve a small change, but most of
/// what a change to the pipeline does is visible in exact counters: cut,
/// hierarchy shape, per-rank message and word counts, halo volume per
/// level, pair shipping, resident footprints. They are pure functions of
/// (graph, config, seed, p), so this gate pins them with no noise. Timing
/// counters (`*_ns`, `rounds_waited`, `time.*`) and the endpoint-measured
/// wire and heartbeat bytes are left out: they differ between identical
/// runs.
///
/// Changing an expected value is a deliberate edit. On a mismatch the test
/// writes the values it measured to golden_counters.actual.json in its
/// working directory; review the difference, then copy that file over
/// tests/data/golden_counters.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics_export.hpp"
#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "parallel/pe_runtime.hpp"
#include "util/metrics.hpp"

#ifndef KAPPA_TEST_DATA_DIR
#error "KAPPA_TEST_DATA_DIR must name the tests/data directory"
#endif

namespace kappa {
namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Whether \p key is one of the gated counters.
bool gated(const std::string& key) {
  if (ends_with(key, "_ns") || key.find("rounds_waited") != std::string::npos ||
      key.find("wire_bytes_") != std::string::npos ||
      key.find("heartbeat_") != std::string::npos || starts_with(key, "time.")) {
    return false;
  }
  static const std::vector<std::string> kCommRows = {
      "comm.per_rank.messages_sent", "comm.per_rank.words_sent",
      "comm.per_rank.messages_received", "comm.per_rank.words_received",
      "comm.per_rank.barriers"};
  for (const std::string& row : kCommRows) {
    if (key == row) return true;
  }
  return key == "partition.cut" || starts_with(key, "hierarchy.") ||
         starts_with(key, "coarsen.per_rank.") ||
         starts_with(key, "ship.per_rank.") ||
         (starts_with(key, "memory.") && ends_with(key, "_per_rank")) ||
         (starts_with(key, "comm.halo.") && ends_with(key, "_per_level"));
}

/// One JSON line `"key": value` of a gated metric.
std::string format_metric(const MetricsRegistry& metrics,
                          const std::string& key) {
  std::ostringstream out;
  out << '"' << key << "\": ";
  if (key == "partition.cut") {
    out << metrics.i64(key);
  } else if (key == "hierarchy.levels" || key == "hierarchy.coarsest_nodes") {
    out << metrics.u64(key);
  } else {
    out << '[';
    const std::vector<std::uint64_t>& values = metrics.u64_list(key);
    for (std::size_t i = 0; i < values.size(); ++i) {
      out << (i > 0 ? ", " : "") << values[i];
    }
    out << ']';
  }
  return out.str();
}

/// The gated counters of every run of the matrix, as a JSON document with
/// one metric per line (so a failing gate reads like a diff).
std::string measure_matrix() {
  std::ostringstream doc;
  doc << "{\n";
  bool first_run = true;
  for (const char* instance : {"rgg14", "delaunay14", "grid_s"}) {
    const StaticGraph graph = make_instance(instance, 7);
    for (const Preset preset : {Preset::kFast, Preset::kStrong}) {
      Config config = Config::preset(preset, 16);
      config.seed = 101;
      config.trace_enabled = false;
      for (const int p : {0, 1, 4}) {  // 0: sequential
        PartitionResult result;
        std::string backend = "sequential";
        if (p == 0) {
          result = Partitioner(Context::sequential(config)).partition(graph);
        } else {
          PERuntime runtime(p, config.seed);
          result =
              Partitioner(Context::spmd(config, runtime)).partition(graph);
          backend = runtime.backend();
        }
        const MetricsRegistry metrics =
            metrics_from_result(result, config, backend);
        doc << (first_run ? "" : ",\n") << "  \"" << instance << ' '
            << preset_name(preset) << ' '
            << (p == 0 ? std::string("seq") : "p=" + std::to_string(p))
            << "\": {\n";
        first_run = false;
        bool first_key = true;
        for (const std::string& key : metrics.names()) {
          if (!gated(key)) continue;
          doc << (first_key ? "" : ",\n") << "    "
              << format_metric(metrics, key);
          first_key = false;
        }
        doc << "\n  }";
      }
    }
  }
  doc << "\n}\n";
  return doc.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(GoldenCounters, MatchTheCommittedValues) {
  const std::string path =
      std::string(KAPPA_TEST_DATA_DIR) + "/golden_counters.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream expected;
  expected << in.rdbuf();

  const std::string actual = measure_matrix();
  if (actual == expected.str()) return;

  std::ofstream("golden_counters.actual.json") << actual;
  const std::vector<std::string> want = lines_of(expected.str());
  const std::vector<std::string> got = lines_of(actual);
  std::string run;  // the run header the differing line belongs to
  int reported = 0;
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string& w = i < want.size() ? want[i] : std::string();
    const std::string& g = i < got.size() ? got[i] : std::string();
    if (ends_with(g, "{")) run = g;
    if (w == g) continue;
    ADD_FAILURE() << "line " << i + 1 << " (" << run << ")\n  expected: " << w
                  << "\n  actual:   " << g;
    if (++reported == 20) break;
  }
  FAIL() << "golden counters differ; the measured values are in "
            "golden_counters.actual.json in the test's working directory";
}

}  // namespace
}  // namespace kappa
