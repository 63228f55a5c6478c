#include "graph/graph_io.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "graph/graph_builder.hpp"

namespace kappa {

namespace {

/// Reads the next non-comment, non-empty line; returns false at EOF.
/// Used for the header only. \p line_no counts every line read.
bool next_data_line(std::istream& in, std::string& line,
                    std::uint64_t& line_no) {
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line[0] != '%') return true;
  }
  return false;
}

/// Reads the next vertex line, skipping only '%' comments. An *empty*
/// line is data here: a vertex with no neighbors (legal in the METIS
/// format) has one, and swallowing it would shift every following row.
bool next_vertex_line(std::istream& in, std::string& line,
                      std::uint64_t& line_no) {
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] != '%') return true;
  }
  return false;
}

/// "<path>:<line>: <what>" — the message of every malformed-row error.
std::runtime_error row_error(const std::string& path, std::uint64_t line_no,
                             const std::string& what) {
  return std::runtime_error(path + ":" + std::to_string(line_no) + ": " +
                            what);
}

/// The token a failed extraction stopped at (for error messages).
std::string bad_token(std::istringstream& row) {
  row.clear();
  std::string token;
  row >> token;
  return token;
}

}  // namespace

StaticGraph read_metis_graph(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open graph file: " + path);

  std::string line;
  std::uint64_t line_no = 0;
  if (!next_data_line(in, line, line_no)) {
    throw std::runtime_error("empty graph file: " + path);
  }
  const std::uint64_t header_line = line_no;
  std::istringstream header(line);
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::string fmt = "000";
  if (!(header >> n >> m)) {
    throw row_error(path, header_line,
                    "header wants '<nodes> <edges> [fmt]', got '" + line +
                        "'");
  }
  if (n > std::numeric_limits<NodeID>::max()) {
    throw row_error(path, header_line,
                    "node count " + std::to_string(n) + " does not fit NodeID");
  }
  if (header >> fmt) {
    if (fmt.size() > 3 || fmt.find_first_not_of("01") != std::string::npos) {
      throw row_error(path, header_line, "bad format field '" + fmt + "'");
    }
    while (fmt.size() < 3) fmt.insert(fmt.begin(), '0');
  }
  const bool has_edge_weights = fmt[fmt.size() - 1] == '1';
  const bool has_node_weights = fmt[fmt.size() - 2] == '1';

  // Each edge is listed in the rows of both endpoints. The lower
  // endpoint's listing goes to the builder; the higher endpoint's is kept
  // as (lower, higher, weight) and checked against it below.
  struct Listing {
    NodeID lower;
    NodeID higher;
    EdgeWeight w;
  };
  std::vector<Listing> mirror;
  std::vector<std::uint64_t> row_line;  ///< file line of each node's row
  /// Row that last listed each node: catches a neighbor listed twice.
  std::vector<NodeID> listed_by(n, kInvalidNode);
  GraphBuilder builder(static_cast<NodeID>(n));
  for (NodeID u = 0; u < n; ++u) {
    if (!next_vertex_line(in, line, line_no)) {
      throw std::runtime_error("unexpected EOF in graph file: " + path);
    }
    row_line.push_back(line_no);
    std::istringstream row(line);
    if (has_node_weights) {
      NodeWeight w = 1;
      if (!(row >> w)) {
        throw row_error(path, line_no,
                        "missing or non-numeric node weight '" +
                            bad_token(row) + "'");
      }
      builder.set_node_weight(u, w);
    }
    std::uint64_t v1 = 0;
    while (row >> v1) {
      EdgeWeight w = 1;
      if (has_edge_weights && !(row >> w)) {
        throw row_error(path, line_no,
                        "missing or non-numeric edge weight '" +
                            bad_token(row) + "'");
      }
      if (v1 == 0 || v1 > n) {
        throw row_error(path, line_no, "neighbor id out of range");
      }
      const NodeID v = static_cast<NodeID>(v1 - 1);
      if (v == u) {
        throw row_error(path, line_no,
                        "node " + std::to_string(u + 1) + " lists itself");
      }
      if (listed_by[v] == u) {
        throw row_error(path, line_no,
                        "node " + std::to_string(u + 1) + " lists node " +
                            std::to_string(v + 1) + " twice");
      }
      listed_by[v] = u;
      if (u < v) {
        builder.add_edge(u, v, w);
      } else {
        mirror.push_back({v, u, w});
      }
    }
    // Extraction stops at end of line or at a token that is not a
    // number; the latter must not silently truncate the row.
    if (!row.eof()) {
      throw row_error(path, line_no,
                      "non-numeric token '" + bad_token(row) + "'");
    }
  }
  StaticGraph graph = builder.finalize();

  // Both listings of every edge must exist and agree on the weight. The
  // graph rows hold the lower-endpoint listings sorted by target; sort the
  // mirror listings the same way. (No row lists a neighbor twice, so
  // neither side has parallel listings to merge.)
  std::sort(mirror.begin(), mirror.end(),
            [](const Listing& a, const Listing& b) {
              return std::tie(a.lower, a.higher) < std::tie(b.lower, b.higher);
            });
  const auto one_sided = [&](NodeID lister, NodeID other) {
    return row_error(path, row_line[lister],
                     "node " + std::to_string(lister + 1) + " lists node " +
                         std::to_string(other + 1) + ", but node " +
                         std::to_string(other + 1) + " (line " +
                         std::to_string(row_line[other]) +
                         ") does not list it");
  };
  std::size_t next = 0;
  for (NodeID u = 0; u < n; ++u) {
    for (EdgeID e = graph.first_arc(u); e < graph.last_arc(u); ++e) {
      const NodeID v = graph.arc_target(e);
      if (v < u) continue;
      if (next < mirror.size() &&
          std::tie(mirror[next].lower, mirror[next].higher) <
              std::tie(u, v)) {
        throw one_sided(mirror[next].higher, mirror[next].lower);
      }
      if (next == mirror.size() || mirror[next].lower != u ||
          mirror[next].higher != v) {
        throw one_sided(u, v);
      }
      if (mirror[next].w != graph.arc_weight(e)) {
        throw row_error(path, row_line[v],
                        "edge " + std::to_string(u + 1) + "-" +
                            std::to_string(v + 1) + " has weight " +
                            std::to_string(mirror[next].w) + " here but " +
                            std::to_string(graph.arc_weight(e)) +
                            " in the row of node " + std::to_string(u + 1) +
                            " (line " + std::to_string(row_line[u]) + ")");
      }
      ++next;
    }
  }
  if (next < mirror.size()) {
    throw one_sided(mirror[next].higher, mirror[next].lower);
  }
  if (graph.num_edges() != m) {
    throw row_error(path, header_line,
                    "header declares " + std::to_string(m) +
                        " edges, but the rows list " +
                        std::to_string(graph.num_edges()));
  }
  return graph;
}

void write_metis_graph(const StaticGraph& graph, const std::string& path) {
  bool weighted_nodes = false;
  for (NodeID u = 0; u < graph.num_nodes(); ++u) {
    if (graph.node_weight(u) != 1) weighted_nodes = true;
  }
  bool weighted_edges = false;
  for (EdgeID e = 0; e < graph.num_arcs(); ++e) {
    if (graph.arc_weight(e) != 1) weighted_edges = true;
  }

  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write graph file: " + path);
  out << graph.num_nodes() << ' ' << graph.num_edges();
  if (weighted_nodes || weighted_edges) {
    out << ' ' << (weighted_nodes ? '1' : '0') << (weighted_edges ? '1' : '0');
  }
  out << '\n';
  for (NodeID u = 0; u < graph.num_nodes(); ++u) {
    bool first = true;
    if (weighted_nodes) {
      out << graph.node_weight(u);
      first = false;
    }
    for (EdgeID e = graph.first_arc(u); e < graph.last_arc(u); ++e) {
      if (!first) out << ' ';
      first = false;
      out << graph.arc_target(e) + 1;
      if (weighted_edges) out << ' ' << graph.arc_weight(e);
    }
    out << '\n';
  }
}

void write_partition(const Partition& partition, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write partition file: " + path);
  for (NodeID u = 0; u < partition.num_nodes(); ++u) {
    out << partition.block(u) << '\n';
  }
}

Partition read_partition(const StaticGraph& graph, BlockID k,
                         const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open partition file: " + path);
  std::vector<BlockID> assignment(graph.num_nodes());
  for (NodeID u = 0; u < graph.num_nodes(); ++u) {
    std::uint64_t b = 0;
    if (!(in >> b) || b >= k) {
      throw std::runtime_error("bad partition file: " + path);
    }
    assignment[u] = static_cast<BlockID>(b);
  }
  return Partition(graph, std::move(assignment), k);
}

}  // namespace kappa
