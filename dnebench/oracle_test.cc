// Tests of the benchmark's oracles: each check accepts a right result and
// rejects a corrupted one (one reassigned edge, one wrong distance, one
// wrong label, one perturbed rank). Plain executable, no test framework:
//
//   cmake --build .bench_build --target oracle_test && .bench_build/oracle_test
//
// Exit status 0 means every test passed.
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "oracle.h"

namespace {

int g_failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

using oracle::EdgeRec;

// Two triangles {0,1,2} and {3,4,5} joined by the edge 2-3, an isolated
// vertex 6, and a separate edge 7-8.
std::vector<EdgeRec> TestEdges() {
  return {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4},
          {3, 5}, {4, 5}, {7, 8}};
}
constexpr std::uint64_t kN = 9;

void TestRecountAndCheck() {
  const std::vector<EdgeRec> edges = TestEdges();
  // P = 2: the left triangle + bridge to 0, the rest to 1.
  const std::vector<std::uint32_t> assign = {0, 0, 0, 0, 1, 1, 1, 1};
  oracle::PartitionRecount rc;
  Expect(oracle::RecountPartition(edges, kN, assign, 2, &rc).empty(),
         "recount of a valid cover succeeds");
  // Vertex 3 is in both partitions; 0,1,2 in 0; 4,5,7,8 in 1 -> 9 / 8.
  Expect(rc.non_isolated == 8, "non-isolated count");
  Expect(rc.total_replicas == 9, "replica count");
  Expect(rc.replication_factor == 9.0 / 8.0, "replication factor");
  Expect(rc.edges_per_partition == std::vector<std::uint64_t>({4, 4}),
         "per-partition counts");

  oracle::ReportedPartition rp;
  rp.replication_factor = 9.0 / 8.0;
  rp.edges_per_partition = {4, 4};
  Expect(oracle::CheckPartition(rc, rp, edges.size(), 2, 1.1, 0).empty(),
         "check accepts the matching report");

  // One reassigned edge (0-1 moves to partition 1): the recount no longer
  // matches what was reported for the original assignment.
  std::vector<std::uint32_t> moved = assign;
  moved[0] = 1;
  oracle::PartitionRecount rc_moved;
  Expect(oracle::RecountPartition(edges, kN, moved, 2, &rc_moved).empty(),
         "recount of the moved cover succeeds");
  Expect(!oracle::CheckPartition(rc_moved, rp, edges.size(), 2, 1.1, 0)
              .empty(),
         "check rejects one reassigned edge");

  // Not a cover: an id out of range, or a missing entry.
  std::vector<std::uint32_t> bad = assign;
  bad[5] = 2;
  Expect(!oracle::RecountPartition(edges, kN, bad, 2, &rc).empty(),
         "recount rejects a partition id >= P");
  bad = assign;
  bad[5] = 0xFFFFFFFFu;
  Expect(!oracle::RecountPartition(edges, kN, bad, 2, &rc).empty(),
         "recount rejects an unassigned edge");
  bad = assign;
  bad.pop_back();
  Expect(!oracle::RecountPartition(edges, kN, bad, 2, &rc).empty(),
         "recount rejects a short assignment");

  // Counts that do not sum to |E|, and a partition over the alpha cap.
  oracle::PartitionRecount rc_ok;
  oracle::RecountPartition(edges, kN, assign, 2, &rc_ok);
  Expect(!oracle::CheckPartition(rc_ok, rp, edges.size() + 1, 2, 1.1, 0)
              .empty(),
         "check rejects counts that do not sum to |E|");
  const std::vector<std::uint32_t> lopsided = {0, 0, 0, 0, 0, 0, 1, 1};
  oracle::PartitionRecount rc_lop;
  oracle::RecountPartition(edges, kN, lopsided, 2, &rc_lop);
  oracle::ReportedPartition rp_lop;
  rp_lop.replication_factor = rc_lop.replication_factor;
  rp_lop.edges_per_partition = rc_lop.edges_per_partition;
  Expect(!oracle::CheckPartition(rc_lop, rp_lop, edges.size(), 2, 1.1, 0)
              .empty(),
         "check rejects a partition over the alpha cap");
  Expect(oracle::CheckPartition(rc_lop, rp_lop, edges.size(), 2, 1.1, 2)
             .empty(),
         "check allows the stated overshoot");
}

void TestBfs() {
  const std::vector<EdgeRec> edges = TestEdges();
  const oracle::Adjacency adj = oracle::BuildAdjacency(edges, kN);
  const std::vector<std::uint64_t> d = oracle::BfsDistances(adj, 0);
  const std::uint64_t U = oracle::kUnreachable;
  const std::vector<std::uint64_t> want = {0, 1, 1, 2, 3, 3, U, U, U};
  Expect(d == want, "bfs distances from 0");
  Expect(oracle::CompareExact(d, want, "sssp").empty(),
         "exact compare accepts equal distances");
  std::vector<std::uint64_t> wrong = want;
  wrong[4] = 2;
  Expect(!oracle::CompareExact(wrong, want, "sssp").empty(),
         "exact compare rejects one wrong distance");
  wrong = want;
  wrong[6] = 5;
  Expect(!oracle::CompareExact(wrong, want, "sssp").empty(),
         "exact compare rejects a reached isolated vertex");
  // The fingerprint a run keeps per response: equal results agree, one
  // wrong distance or two swapped distances do not.
  Expect(oracle::Fingerprint(d) == oracle::Fingerprint(want),
         "fingerprint of equal distances");
  wrong = want;
  wrong[4] = 2;
  Expect(oracle::Fingerprint(wrong) != oracle::Fingerprint(want),
         "fingerprint rejects one wrong distance");
  wrong = want;
  std::swap(wrong[1], wrong[3]);
  Expect(oracle::Fingerprint(wrong) != oracle::Fingerprint(want),
         "fingerprint rejects two swapped distances");
}

void TestWcc() {
  const std::vector<EdgeRec> edges = TestEdges();
  // Reversed insertion order must not change the min labels.
  std::vector<EdgeRec> rev(edges.rbegin(), edges.rend());
  const std::vector<std::uint64_t> want = {0, 0, 0, 0, 0, 0, 6, 7, 7};
  Expect(oracle::ComponentMinLabels(edges, kN) == want, "wcc min labels");
  Expect(oracle::ComponentMinLabels(rev, kN) == want,
         "wcc min labels, reversed edges");
  std::vector<std::uint64_t> wrong = want;
  wrong[8] = 8;
  Expect(!oracle::CompareExact(wrong, want, "wcc").empty(),
         "exact compare rejects one wrong label");
}

void TestPageRank() {
  // A star with centre 0 and leaves 1..3, plus isolated vertex 4. By
  // symmetry all leaves share one value; check the first round by hand.
  const std::vector<EdgeRec> edges = {{0, 1}, {0, 2}, {0, 3}};
  const oracle::Adjacency adj = oracle::BuildAdjacency(edges, 5);
  const std::vector<double> r1 = oracle::PageRank(adj, 1, 0.85);
  const double base = 0.2;
  Expect(std::fabs(r1[0] - (0.15 * base + 0.85 * 3 * base)) < 1e-15,
         "pagerank centre after one round");
  Expect(std::fabs(r1[1] - (0.15 * base + 0.85 * base / 3)) < 1e-15,
         "pagerank leaf after one round");
  Expect(r1[4] == base, "pagerank isolated vertex keeps 1/n");

  const std::vector<double> r = oracle::PageRank(adj, 10, 0.85);
  std::vector<std::uint64_t> bits;
  for (const double x : r) bits.push_back(std::bit_cast<std::uint64_t>(x));
  Expect(oracle::ComparePageRank(bits, r, 1e-9).empty(),
         "pagerank compare accepts its own result");
  std::vector<std::uint64_t> off = bits;
  off[2] = std::bit_cast<std::uint64_t>(r[2] * (1 + 1e-6));
  Expect(!oracle::ComparePageRank(off, r, 1e-9).empty(),
         "pagerank compare rejects a 1e-6 relative error");
  off = bits;
  off[3] = std::bit_cast<std::uint64_t>(std::nan(""));
  Expect(!oracle::ComparePageRank(off, r, 1e-9).empty(),
         "pagerank compare rejects NaN");
}

}  // namespace

int main() {
  TestRecountAndCheck();
  TestBfs();
  TestWcc();
  TestPageRank();
  if (g_failures == 0) std::printf("oracle_test: all checks passed\n");
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
