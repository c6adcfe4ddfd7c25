// Correctness oracles of the benchmark, written apart from the library: none
// of this code includes a library header or calls a library function, so a
// fault in the program cannot hide in the check that is meant to catch it.
// Edges are read through any record type with `src` and `dst` members (the
// library's dne::Edge in the benchmark, a local struct in the tests).
//
// Every check returns an empty string when the result is right and a
// human-readable reason when it is not.
#ifndef DNEBENCH_ORACLE_H_
#define DNEBENCH_ORACLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace oracle {

/// One undirected edge as the oracles store it.
struct EdgeRec {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
};

/// Copies any edge range into the oracle's own record type.
template <typename Range>
std::vector<EdgeRec> CopyEdges(const Range& edges) {
  std::vector<EdgeRec> out;
  out.reserve(edges.size());
  for (const auto& e : edges) out.push_back(EdgeRec{e.src, e.dst});
  return out;
}

/// Reads the edge records of a binary edge file (the 40-byte v2 header:
/// magic "DNEEDGE2", u32 version, u32 reserved, u64 |V|, u64 |E|, u64
/// checksum; then |E| pairs of u64). The parser is the oracle's own.
std::string ReadEdgeFile(const std::string& path, std::uint64_t* num_vertices,
                         std::vector<EdgeRec>* edges);

/// What the partition recount found.
struct PartitionRecount {
  std::uint64_t non_isolated = 0;    ///< vertices with at least one edge
  std::uint64_t total_replicas = 0;  ///< sum over vertices of |partitions|
  double replication_factor = 0.0;   ///< total_replicas / non_isolated
  std::vector<std::uint64_t> edges_per_partition;
};

/// Recounts a partition from its assignment with a per-vertex partition
/// bitmask (P <= 64). Fails unless the assignment is a disjoint cover: one
/// entry per edge, each below P.
std::string RecountPartition(std::span<const EdgeRec> edges,
                             std::uint64_t num_vertices,
                             std::span<const std::uint32_t> assignment,
                             std::uint32_t num_partitions,
                             PartitionRecount* out);

/// What the program reported about a partition, to hold against a recount.
struct ReportedPartition {
  double replication_factor = 0.0;
  std::vector<std::uint64_t> edges_per_partition;
};

/// The partition acceptance checks: the recount matches the report exactly
/// (RF and per-partition counts), the counts sum to |E|, RF is within the
/// Theorem-1 bound (|E| + |V| + |P|) / |V| with |V| the non-isolated
/// vertices, and the largest partition is within ceil(alpha |E| / |P|)
/// plus `overshoot` edges.
std::string CheckPartition(const PartitionRecount& recount,
                           const ReportedPartition& reported,
                           std::uint64_t num_edges,
                           std::uint32_t num_partitions, double alpha,
                           std::uint64_t overshoot);

/// Undirected adjacency built by the oracle itself (CSR over both
/// orientations of every edge).
struct Adjacency {
  std::vector<std::uint64_t> offsets;  ///< size |V| + 1
  std::vector<std::uint64_t> targets;
  std::uint64_t degree(std::uint64_t v) const {
    return offsets[v + 1] - offsets[v];
  }
};
Adjacency BuildAdjacency(std::span<const EdgeRec> edges,
                         std::uint64_t num_vertices);

/// SSSP distance of an unreachable vertex on the serve result surface.
inline constexpr std::uint64_t kUnreachable = 0xFFFFFFFFull;

/// Hop distances from `source` by plain breadth-first search.
std::vector<std::uint64_t> BfsDistances(const Adjacency& adj,
                                        std::uint64_t source);

/// Component labels by union-find: each vertex gets the smallest vertex id
/// of its connected component (an isolated vertex labels itself).
std::vector<std::uint64_t> ComponentMinLabels(std::span<const EdgeRec> edges,
                                              std::uint64_t num_vertices);

/// Synchronous power iteration on the undirected graph: every vertex starts
/// at 1/n; each round a vertex of degree d > 0 takes
/// (1 - damping)/n + damping * sum over neighbours u of rank(u)/deg(u);
/// degree-0 vertices keep 1/n.
std::vector<double> PageRank(const Adjacency& adj, int iterations,
                             double damping);

/// Exact comparison of integer results (SSSP distances, WCC labels).
std::string CompareExact(std::span<const std::uint64_t> got,
                         std::span<const std::uint64_t> want,
                         const char* what);

/// Order-sensitive 64-bit fingerprint (FNV-1a, one step per value) of a
/// result vector. Lets a run keep one word per response and still
/// compare every response exactly with the oracle afterwards.
std::uint64_t Fingerprint(std::span<const std::uint64_t> values);

/// PageRank comparison: |got - want| <= rel_tol * want for every vertex.
/// `got` holds IEEE-754 bit patterns, as the serve result surface does.
std::string ComparePageRank(std::span<const std::uint64_t> got_bits,
                            std::span<const double> want, double rel_tol);

}  // namespace oracle

#endif  // DNEBENCH_ORACLE_H_
