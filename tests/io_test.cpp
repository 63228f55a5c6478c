/// \file io_test.cpp
/// \brief Tests for METIS graph-file and partition-file I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "generators/generators.hpp"
#include "graph/graph_builder.hpp"
#include "graph/graph_io.hpp"
#include "graph/validation.hpp"

namespace kappa {
namespace {

class IOTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "kappa_io_" + name;
  }
};

TEST_F(IOTest, RoundTripUnweighted) {
  const StaticGraph original = grid_graph(7, 5);
  const std::string path = temp_path("unweighted.graph");
  write_metis_graph(original, path);
  const StaticGraph read = read_metis_graph(path);
  ASSERT_EQ(read.num_nodes(), original.num_nodes());
  ASSERT_EQ(read.num_edges(), original.num_edges());
  EXPECT_EQ(validate_graph(read), "");
  for (NodeID u = 0; u < read.num_nodes(); ++u) {
    ASSERT_EQ(read.degree(u), original.degree(u));
  }
  std::remove(path.c_str());
}

TEST_F(IOTest, RoundTripWithIsolatedVertex) {
  // An isolated vertex is written as an *empty* line — legal METIS.
  // Regression: the reader used to swallow it as if it were a comment,
  // shifting every following row and dying with "unexpected EOF".
  GraphBuilder builder(5);
  builder.add_edge(0, 1, 1);
  builder.add_edge(3, 4, 1);  // vertex 2 stays isolated
  const StaticGraph original = builder.finalize();
  const std::string path = temp_path("isolated.graph");
  write_metis_graph(original, path);
  const StaticGraph read = read_metis_graph(path);
  ASSERT_EQ(read.num_nodes(), original.num_nodes());
  ASSERT_EQ(read.num_edges(), original.num_edges());
  EXPECT_EQ(read.degree(2), 0u);
  EXPECT_EQ(read.degree(0), 1u);
  EXPECT_EQ(read.degree(4), 1u);
  std::remove(path.c_str());
}

TEST_F(IOTest, RoundTripWeighted) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1, 3);
  builder.add_edge(1, 2, 7);
  builder.add_edge(2, 3, 2);
  builder.set_node_weight(0, 5);
  builder.set_node_weight(3, 9);
  const StaticGraph original = builder.finalize();
  const std::string path = temp_path("weighted.graph");
  write_metis_graph(original, path);
  const StaticGraph read = read_metis_graph(path);
  ASSERT_EQ(read.num_nodes(), 4u);
  EXPECT_EQ(read.node_weight(0), 5);
  EXPECT_EQ(read.node_weight(1), 1);
  EXPECT_EQ(read.node_weight(3), 9);
  EXPECT_EQ(read.arc_weight(read.first_arc(0)), 3);
  EXPECT_EQ(validate_graph(read), "");
  std::remove(path.c_str());
}

TEST_F(IOTest, ReadsCommentsAndExplicitFormat) {
  const std::string path = temp_path("comments.graph");
  {
    std::ofstream out(path);
    out << "% a Walshaw-archive style header comment\n";
    out << "3 2 001\n";  // edge weights only
    out << "% node 1\n";
    out << "2 10\n";
    out << "1 10 3 20\n";
    out << "2 20\n";
  }
  const StaticGraph g = read_metis_graph(path);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.total_edge_weight(), 30);
  std::remove(path.c_str());
}

TEST_F(IOTest, RejectsMissingFileAndBadContent) {
  EXPECT_THROW(read_metis_graph("/nonexistent/path.graph"),
               std::runtime_error);
  const std::string path = temp_path("bad.graph");
  {
    std::ofstream out(path);
    out << "2 1\n";
    out << "5\n";  // neighbor out of range
    out << "1\n";
  }
  EXPECT_THROW(read_metis_graph(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST_F(IOTest, RejectsMalformedInputNamingTheLine) {
  // Every malformed file must be rejected with a message naming the file
  // line (comments count). Each case used to be read as some other graph.
  const std::string path = temp_path("malformed.graph");
  const struct {
    const char* body;
    const char* line;
  } cases[] = {
      {"% comment\n3 2\n2 x\n1 3\n2\n", ":3: "},  // junk neighbor
      {"3 2\n2\n1 3\n2 2.5\n", ":4: "},            // non-integer
      {"3 2 1\n2 7\n1 3 x\n2 7\n", ":3: "},        // junk edge weight
      {"3 2 10\n1 2\nw 1 3\n1 2\n", ":3: "},       // junk node weight
      // A non-numeric header read as an empty graph.
      {"% c\nabc def\n", ":2: "},
      {"3 2 abc\n2\n1 3\n2\n", ":1: "},  // junk fmt field
      {"4294967296 0\n", ":1: "},        // n beyond NodeID
      // The rows list two edges, the header declares three.
      {"4 3\n2\n1 3\n2\n\n", ":1: "},
      // Node 1 lists node 3, node 3 does not list node 1: the edge was
      // kept or dropped depending on which endpoint has the lower id.
      {"4 2\n2 3\n1\n\n\n", ":2: "},
      {"4 2\n2\n1\n1\n\n", ":4: "},  // the same from the higher endpoint
      // Edge 2-3 carries weight 7 in row 2 and 9 in row 3; one won silently.
      {"3 2 001\n2 1\n1 1 3 7\n2 9\n", ":4: "},
      // A self-loop was dropped.
      {"3 1\n1 2\n1\n\n", ":2: "},
      // A neighbor listed twice was merged into one edge of weight 2.
      {"3 1\n2 2\n1 1\n\n", ":2: "},
  };
  for (const auto& c : cases) {
    {
      std::ofstream out(path);
      out << c.body;
    }
    try {
      (void)read_metis_graph(path);
      ADD_FAILURE() << "accepted: " << c.body;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path + c.line), std::string::npos)
          << e.what();
    }
  }
  // Trailing whitespace and CRLF line ends stay legal.
  {
    std::ofstream out(path);
    out << "3 2\r\n2 \r\n1 3\t\n2\n";
  }
  const StaticGraph g = read_metis_graph(path);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  std::remove(path.c_str());
}

TEST_F(IOTest, PartitionRoundTrip) {
  const StaticGraph g = grid_graph(4, 4);
  Partition p(g.num_nodes(), 4);
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    p.assign(u, u % 4, g.node_weight(u));
  }
  const std::string path = temp_path("part.txt");
  write_partition(p, path);
  const Partition read = read_partition(g, 4, path);
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(read.block(u), p.block(u));
  }
  EXPECT_EQ(validate_partition(g, read), "");
  std::remove(path.c_str());
}

TEST_F(IOTest, PartitionRejectsOutOfRangeBlocks) {
  const StaticGraph g = grid_graph(2, 2);
  const std::string path = temp_path("badpart.txt");
  {
    std::ofstream out(path);
    out << "0\n1\n2\n9\n";  // 9 >= k
  }
  EXPECT_THROW(read_partition(g, 4, path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kappa
