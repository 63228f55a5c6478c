/// \file transport_test.cpp
/// \brief Tests of the pluggable transport layer: the per-source mailbox,
/// fail-fast runtime construction, and the TCP socket backend — including
/// the cross-backend acceptance criterion (same seed, byte-identical
/// partition from the in-process fabric and four localhost processes) and
/// the failure-surfacing guarantees (a dead or silent peer becomes a
/// TransportError within the configured deadline, never a hang).
///
/// The multi-process tests fork() before any thread exists in the child:
/// each child builds its own TCP fabric (whose receiver threads are
/// process-private) and reports through its exit status or a temp file.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>

#include <netinet/in.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "graph/validation.hpp"
#include "parallel/channel.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/transport_tcp.hpp"

namespace kappa {
namespace {

// ------------------------------------------------------------ Mailbox ----

TEST(Mailbox, FifoPerSource) {
  Mailbox box;
  box.push({1, {10}});
  box.push({2, {20}});
  box.push({1, {11}});
  EXPECT_EQ(box.size(), 3u);
  EXPECT_EQ(box.pop(1).payload, (std::vector<std::uint64_t>{10}));
  EXPECT_EQ(box.pop(1).payload, (std::vector<std::uint64_t>{11}));
  EXPECT_EQ(box.pop(2).payload, (std::vector<std::uint64_t>{20}));
  EXPECT_EQ(box.size(), 0u);
}

TEST(Mailbox, AnySourcePopsInArrivalOrder) {
  // The per-source queues must preserve the single-queue semantics for
  // any-source receives: global arrival order, not source order.
  Mailbox box;
  box.push({3, {30}});
  box.push({0, {1}});
  box.push({3, {31}});
  box.push({1, {10}});
  std::vector<int> sources;
  for (int i = 0; i < 4; ++i) sources.push_back(box.pop(-1).source);
  EXPECT_EQ(sources, (std::vector<int>{3, 0, 3, 1}));
}

TEST(Mailbox, PopUntilTimesOutEmpty) {
  Mailbox box;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  EXPECT_FALSE(box.pop_until(0, deadline).has_value());
  EXPECT_LT(std::chrono::steady_clock::now(),
            deadline + std::chrono::seconds(5));
}

TEST(Mailbox, FinishedSourceDrainsThenThrows) {
  Mailbox box;
  box.push({0, {7}});
  box.finish_source(0);
  EXPECT_EQ(box.pop(0).payload, (std::vector<std::uint64_t>{7}));
  EXPECT_THROW((void)box.pop(0), TransportError);
  // Any-source: every registered source finished and empty also throws.
  EXPECT_THROW((void)box.pop(-1), TransportError);
}

TEST(Mailbox, FailPoisonsEveryPop) {
  Mailbox box;
  box.push({0, {7}});
  box.fail("peer died");
  EXPECT_THROW((void)box.pop(0), TransportError);
  EXPECT_THROW((void)box.try_pop(-1), TransportError);
}

// ------------------------------------- fail-fast runtime construction ----

TEST(PERuntimeValidation, RejectsNonPositivePeCount) {
  EXPECT_THROW(PERuntime runtime(0), std::invalid_argument);
  EXPECT_THROW(PERuntime runtime(-2), std::invalid_argument);
}

// ------------------------------------------------------ TCP multi-proc ----

/// Binds an ephemeral localhost port, closes the socket, and returns the
/// port number: free at pick time, immediately reusable by rank 0.
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

TcpOptions local_options(int rank, int num_ranks, std::uint16_t port,
                         int recv_timeout_ms = 30000) {
  TcpOptions options;
  options.rank = rank;
  options.num_ranks = num_ranks;
  options.rendezvous_host = "127.0.0.1";
  options.rendezvous_port = port;
  options.connect_timeout_ms = 20000;
  options.recv_timeout_ms = recv_timeout_ms;
  return options;
}

/// Forks one child per rank; each runs \p body(rank) and exits with its
/// return value (42 on uncaught TransportError, 43 on any other
/// exception). Returns the children's exit codes indexed by rank.
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

TEST(TcpTransport, PingPongCollectivesAndWireBytes) {
  const std::uint16_t port = pick_free_port();
  const auto codes = spawn_ranks(2, [port](int rank) -> int {
    PERuntime runtime(make_tcp_fabric(local_options(rank, 2, port)),
                      /*seed=*/7);
    const std::vector<CommStats> stats =
        runtime.run([](PEContext& pe) {
          // Point-to-point ping-pong on the application lane.
          if (pe.rank() == 0) {
            pe.send(1, {1, 2, 3});
            const Message echo = pe.receive(1);
            if (echo.payload != std::vector<std::uint64_t>{3, 2, 1}) {
              throw std::logic_error("bad echo");
            }
          } else {
            const Message ping = pe.receive(0);
            pe.send(0, {ping.payload[2], ping.payload[1], ping.payload[0]});
          }
          // The full collective family, generic over transport p2p.
          if (pe.all_reduce_sum(static_cast<std::uint64_t>(pe.rank()) + 1) !=
              3) {
            throw std::logic_error("bad all_reduce_sum");
          }
          if (pe.all_gather(static_cast<std::uint64_t>(pe.rank()) * 10) !=
              std::vector<std::uint64_t>{0, 10}) {
            throw std::logic_error("bad all_gather");
          }
          const auto ragged = pe.all_gather_vectors(std::vector<std::uint64_t>(
              static_cast<std::size_t>(pe.rank()) + 1, 9));
          if (ragged[0].size() != 1 || ragged[1].size() != 2) {
            throw std::logic_error("bad all_gather_vectors");
          }
          const auto word =
              pe.broadcast(pe.rank() == 1
                               ? std::vector<std::uint64_t>{77}
                               : std::vector<std::uint64_t>{},
                           1);
          if (word != std::vector<std::uint64_t>{77}) {
            throw std::logic_error("bad broadcast");
          }
          pe.barrier();
        });
    // Only this process's rank is populated; real socket traffic flowed.
    const CommStats& mine = stats[static_cast<std::size_t>(rank)];
    if (mine.wire_bytes_sent == 0 || mine.wire_bytes_received == 0) {
      return 44;
    }
    if (runtime.primary_rank() != rank || runtime.num_pes() != 2) return 45;
    return 0;
  });
  EXPECT_EQ(codes, (std::vector<int>{0, 0}));
}

TEST(TcpTransport, PartitionBitIdenticalToInprocAcrossProcesses) {
  // The cross-backend acceptance criterion: one seed, one instance — the
  // in-process fabric at p = 4 and four localhost processes over TCP must
  // produce byte-identical partitions and identical modeled comm totals.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;

  PERuntime inproc_runtime(4, config.seed);
  const PartitionResult inproc =
      Partitioner(Context::spmd(config, inproc_runtime)).partition(g);
  ASSERT_EQ(validate_partition(g, inproc.partition), "");

  const std::uint16_t port = pick_free_port();
  const std::string path =
      ::testing::TempDir() + "transport_bit_identity." +
      std::to_string(::getpid());
  const auto codes = spawn_ranks(4, [&](int rank) -> int {
    PERuntime runtime(
        make_tcp_fabric(local_options(rank, 4, port, /*recv_timeout_ms=*/
                                      120000)),
        config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    // Every rank holds the full result; rank 0 reports it to the parent.
    if (rank != 0) return 0;
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return 46;
    std::fprintf(out, "%lld %llu %llu\n", static_cast<long long>(result.cut),
                 static_cast<unsigned long long>(result.comm.messages_sent),
                 static_cast<unsigned long long>(result.comm.words_sent));
    for (NodeID u = 0; u < g.num_nodes(); ++u) {
      std::fprintf(out, "%u\n", result.partition.block(u));
    }
    std::fclose(out);
    return 0;
  });
  EXPECT_EQ(codes, (std::vector<int>{0, 0, 0, 0}));

  std::FILE* in = std::fopen(path.c_str(), "r");
  ASSERT_NE(in, nullptr);
  long long cut = -1;
  unsigned long long messages = 0;
  unsigned long long words = 0;
  ASSERT_EQ(std::fscanf(in, "%lld %llu %llu", &cut, &messages, &words), 3);
  EXPECT_EQ(cut, static_cast<long long>(inproc.cut));
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    unsigned block = 0;
    ASSERT_EQ(std::fscanf(in, "%u", &block), 1) << "node " << u;
    ASSERT_EQ(block, inproc.partition.block(u)) << "node " << u;
  }
  std::fclose(in);
  std::remove(path.c_str());
  // The wire model is backend-independent: rank 0's modeled counters must
  // match the in-process run's rank 0 exactly.
  EXPECT_EQ(messages, inproc.comm_per_pe[0].messages_sent);
  EXPECT_EQ(words, inproc.comm_per_pe[0].words_sent);
}

TEST(TcpTransport, ReusedFabricReportsEachRunsWireBytesOnly) {
  // Two traced partitions on one runtime: the endpoints' byte totals keep
  // growing across runs, but every counter a run reports covers that run
  // alone. Rank 0 learns rank 1's run-2 counters from the snapshot rank 1
  // ships mid-run, so they can never exceed what rank 1 reports for the
  // whole of run 2 itself.
  const StaticGraph g = make_instance("grid_s", 1);
  Config config = Config::preset(Preset::kMinimal, 4);
  config.seed = 5;
  config.trace_enabled = true;
  const std::uint16_t port = pick_free_port();
  const std::string path = ::testing::TempDir() + "transport_rerun." +
                           std::to_string(::getpid()) + ".rank";
  const auto codes = spawn_ranks(2, [&](int rank) -> int {
    PERuntime runtime(make_tcp_fabric(local_options(rank, 2, port)),
                      config.seed);
    const Partitioner partitioner(Context::spmd(config, runtime));
    (void)partitioner.partition(g);
    const PartitionResult second = partitioner.partition(g);
    const std::string mine = path + std::to_string(rank);
    std::FILE* out = std::fopen(mine.c_str(), "w");
    if (out == nullptr) return 46;
    std::fprintf(out, "%llu\n",
                 static_cast<unsigned long long>(
                     second.comm_per_pe.at(1).wire_bytes_sent));
    std::fclose(out);
    return 0;
  });
  ASSERT_EQ(codes, (std::vector<int>{0, 0}));

  std::vector<unsigned long long> rank1_sent(2, 0);
  for (int rank = 0; rank < 2; ++rank) {
    const std::string mine = path + std::to_string(rank);
    std::FILE* in = std::fopen(mine.c_str(), "r");
    ASSERT_NE(in, nullptr);
    ASSERT_EQ(std::fscanf(in, "%llu", &rank1_sent[rank]), 1);
    std::fclose(in);
    std::remove(mine.c_str());
  }
  EXPECT_GT(rank1_sent[1], 0u);
  EXPECT_LE(rank1_sent[0], rank1_sent[1])
      << "rank 0's view of rank 1's run-2 bytes counts run 1 too";
}

TEST(TcpTransport, DeadPeerSurfacesAsErrorNotHang) {
  const std::uint16_t port = pick_free_port();
  const auto start = std::chrono::steady_clock::now();
  const auto codes = spawn_ranks(2, [port](int rank) -> int {
    auto fabric = make_tcp_fabric(local_options(rank, 2, port));
    if (rank == 1) {
      // Dies abruptly after the mesh is up: no BYE, no graceful close of
      // the runtime — rank 0 must see the EOF as a TransportError.
      std::_Exit(0);
    }
    Transport& pe = fabric->endpoint(0);
    (void)pe.receive(1, Lane::kApp);  // never sent -> peer-death error
    return 1;                         // unreachable
  });
  EXPECT_EQ(codes[0], 42);  // TransportError
  EXPECT_EQ(codes[1], 0);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(60));
}

TEST(TcpTransport, SilentPeerHitsReceiveDeadline) {
  const std::uint16_t port = pick_free_port();
  const auto start = std::chrono::steady_clock::now();
  const auto codes = spawn_ranks(2, [port](int rank) -> int {
    auto fabric = make_tcp_fabric(
        local_options(rank, 2, port, /*recv_timeout_ms=*/1000));
    if (rank == 1) {
      // Alive but silent: holds the connection open without sending.
      ::usleep(4000 * 1000);
      return 0;
    }
    Transport& pe = fabric->endpoint(0);
    try {
      (void)pe.receive(1, Lane::kApp);
      return 1;  // a message appeared out of nowhere
    } catch (const TransportError&) {
      return 0;  // the deadline fired
    }
  });
  EXPECT_EQ(codes, (std::vector<int>{0, 0}));
  // Deadline semantics: the error fired near the 1 s deadline, not after
  // the silent peer's 4 s nap (and certainly not never).
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(30));
}

}  // namespace
}  // namespace kappa
