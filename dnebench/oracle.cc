#include "oracle.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

namespace oracle {

namespace {

constexpr char kMagicV2[8] = {'D', 'N', 'E', 'E', 'D', 'G', 'E', '2'};
constexpr std::size_t kHeaderBytes = 40;

std::uint64_t LoadU64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::string Num(std::uint64_t v) { return std::to_string(v); }

}  // namespace

std::string ReadEdgeFile(const std::string& path, std::uint64_t* num_vertices,
                         std::vector<EdgeRec>* edges) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "cannot open " + path;
  unsigned char head[kHeaderBytes];
  std::string err;
  if (std::fread(head, 1, kHeaderBytes, f) != kHeaderBytes) {
    err = path + ": short header";
  } else if (std::memcmp(head, kMagicV2, sizeof(kMagicV2)) != 0) {
    err = path + ": not a v2 edge file";
  } else {
    *num_vertices = LoadU64(head + 16);
    const std::uint64_t n = LoadU64(head + 24);
    edges->assign(n, EdgeRec{});
    std::vector<unsigned char> buf(1 << 20);
    std::uint64_t done = 0;
    while (done < n && err.empty()) {
      const std::uint64_t want =
          std::min<std::uint64_t>(n - done, buf.size() / 16);
      if (std::fread(buf.data(), 16, want, f) != want) {
        err = path + ": truncated payload";
        break;
      }
      for (std::uint64_t i = 0; i < want; ++i) {
        (*edges)[done + i] =
            EdgeRec{LoadU64(&buf[16 * i]), LoadU64(&buf[16 * i + 8])};
      }
      done += want;
    }
    if (err.empty() && std::fgetc(f) != EOF) err = path + ": trailing bytes";
  }
  std::fclose(f);
  return err;
}

std::string RecountPartition(std::span<const EdgeRec> edges,
                             std::uint64_t num_vertices,
                             std::span<const std::uint32_t> assignment,
                             std::uint32_t num_partitions,
                             PartitionRecount* out) {
  if (num_partitions == 0 || num_partitions > 64) {
    return "recount supports 1..64 partitions, got " + Num(num_partitions);
  }
  if (assignment.size() != edges.size()) {
    return "assignment has " + Num(assignment.size()) + " entries for " +
           Num(edges.size()) + " edges";
  }
  std::vector<std::uint64_t> mask(num_vertices, 0);
  out->edges_per_partition.assign(num_partitions, 0);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const std::uint32_t p = assignment[e];
    if (p >= num_partitions) {
      return "edge " + Num(e) + " has partition id " + Num(p) +
             " (not below " + Num(num_partitions) + ")";
    }
    if (edges[e].src >= num_vertices || edges[e].dst >= num_vertices) {
      return "edge " + Num(e) + " names a vertex outside |V|";
    }
    ++out->edges_per_partition[p];
    mask[edges[e].src] |= std::uint64_t{1} << p;
    mask[edges[e].dst] |= std::uint64_t{1} << p;
  }
  out->non_isolated = 0;
  out->total_replicas = 0;
  for (const std::uint64_t m : mask) {
    if (m == 0) continue;
    ++out->non_isolated;
    out->total_replicas += static_cast<std::uint64_t>(std::popcount(m));
  }
  out->replication_factor =
      out->non_isolated == 0 ? 0.0
                             : static_cast<double>(out->total_replicas) /
                                   static_cast<double>(out->non_isolated);
  return "";
}

std::string CheckPartition(const PartitionRecount& recount,
                           const ReportedPartition& reported,
                           std::uint64_t num_edges,
                           std::uint32_t num_partitions, double alpha,
                           std::uint64_t overshoot) {
  if (recount.replication_factor != reported.replication_factor) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "replication factor %.12f reported, %.12f recounted",
                  reported.replication_factor, recount.replication_factor);
    return buf;
  }
  if (reported.edges_per_partition != recount.edges_per_partition) {
    return "per-partition edge counts differ from the recount";
  }
  const std::uint64_t sum =
      std::accumulate(recount.edges_per_partition.begin(),
                      recount.edges_per_partition.end(), std::uint64_t{0});
  if (sum != num_edges) {
    return "per-partition counts sum to " + Num(sum) + ", |E| = " +
           Num(num_edges);
  }
  if (recount.non_isolated == 0) return "no vertex has an edge";
  const double bound =
      static_cast<double>(num_edges + recount.non_isolated + num_partitions) /
      static_cast<double>(recount.non_isolated);
  if (recount.replication_factor > bound) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "replication factor %.6f exceeds the Theorem-1 bound %.6f",
                  recount.replication_factor, bound);
    return buf;
  }
  const auto cap = static_cast<std::uint64_t>(
      std::ceil(alpha * static_cast<double>(num_edges) /
                static_cast<double>(num_partitions)));
  const std::uint64_t largest =
      *std::max_element(recount.edges_per_partition.begin(),
                        recount.edges_per_partition.end());
  if (largest > cap + overshoot) {
    return "largest partition holds " + Num(largest) + " edges, over the " +
           "alpha cap " + Num(cap) + " + " + Num(overshoot);
  }
  return "";
}

Adjacency BuildAdjacency(std::span<const EdgeRec> edges,
                         std::uint64_t num_vertices) {
  Adjacency adj;
  adj.offsets.assign(num_vertices + 1, 0);
  for (const EdgeRec& e : edges) {
    ++adj.offsets[e.src + 1];
    ++adj.offsets[e.dst + 1];
  }
  for (std::uint64_t v = 0; v < num_vertices; ++v) {
    adj.offsets[v + 1] += adj.offsets[v];
  }
  adj.targets.resize(adj.offsets[num_vertices]);
  std::vector<std::uint64_t> cursor(adj.offsets.begin(),
                                    adj.offsets.end() - 1);
  for (const EdgeRec& e : edges) {
    adj.targets[cursor[e.src]++] = e.dst;
    adj.targets[cursor[e.dst]++] = e.src;
  }
  return adj;
}

std::vector<std::uint64_t> BfsDistances(const Adjacency& adj,
                                        std::uint64_t source) {
  const std::uint64_t n = adj.offsets.size() - 1;
  std::vector<std::uint64_t> dist(n, kUnreachable);
  if (source >= n) return dist;
  std::vector<std::uint64_t> frontier{source};
  std::vector<std::uint64_t> next;
  dist[source] = 0;
  for (std::uint64_t level = 1; !frontier.empty(); ++level) {
    next.clear();
    for (const std::uint64_t u : frontier) {
      for (std::uint64_t i = adj.offsets[u]; i < adj.offsets[u + 1]; ++i) {
        const std::uint64_t w = adj.targets[i];
        if (dist[w] == kUnreachable) {
          dist[w] = level;
          next.push_back(w);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

std::vector<std::uint64_t> ComponentMinLabels(std::span<const EdgeRec> edges,
                                              std::uint64_t num_vertices) {
  std::vector<std::uint64_t> parent(num_vertices);
  std::iota(parent.begin(), parent.end(), std::uint64_t{0});
  auto find = [&parent](std::uint64_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  // Union by smaller root id: the root of every set is its minimum vertex.
  for (const EdgeRec& e : edges) {
    const std::uint64_t a = find(e.src);
    const std::uint64_t b = find(e.dst);
    if (a < b) {
      parent[b] = a;
    } else if (b < a) {
      parent[a] = b;
    }
  }
  std::vector<std::uint64_t> label(num_vertices);
  for (std::uint64_t v = 0; v < num_vertices; ++v) label[v] = find(v);
  return label;
}

std::vector<double> PageRank(const Adjacency& adj, int iterations,
                             double damping) {
  const std::uint64_t n = adj.offsets.size() - 1;
  const double base = 1.0 / static_cast<double>(n);
  std::vector<double> rank(n, base);
  std::vector<double> next(n, 0.0);
  for (int it = 0; it < iterations; ++it) {
    for (std::uint64_t v = 0; v < n; ++v) {
      const std::uint64_t d = adj.degree(v);
      if (d == 0) {
        next[v] = base;
        continue;
      }
      double sum = 0.0;
      for (std::uint64_t i = adj.offsets[v]; i < adj.offsets[v + 1]; ++i) {
        const std::uint64_t u = adj.targets[i];
        sum += rank[u] / static_cast<double>(adj.degree(u));
      }
      next[v] = (1.0 - damping) * base + damping * sum;
    }
    rank.swap(next);
  }
  return rank;
}

std::string CompareExact(std::span<const std::uint64_t> got,
                         std::span<const std::uint64_t> want,
                         const char* what) {
  if (got.size() != want.size()) {
    return std::string(what) + ": " + Num(got.size()) + " values, expected " +
           Num(want.size());
  }
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (got[v] != want[v]) {
      return std::string(what) + ": vertex " + Num(v) + " has " +
             Num(got[v]) + ", expected " + Num(want[v]);
    }
  }
  return "";
}

std::uint64_t Fingerprint(std::span<const std::uint64_t> values) {
  std::uint64_t h = 1469598103934665603ull;
  // Each step is a bijection of h, so any single changed value changes the
  // result.
  for (const std::uint64_t v : values) h = (h ^ v) * 1099511628211ull;
  return h;
}

std::string ComparePageRank(std::span<const std::uint64_t> got_bits,
                            std::span<const double> want, double rel_tol) {
  if (got_bits.size() != want.size()) {
    return "pagerank: " + Num(got_bits.size()) + " values, expected " +
           Num(want.size());
  }
  for (std::size_t v = 0; v < want.size(); ++v) {
    const double got = std::bit_cast<double>(got_bits[v]);
    if (!(std::fabs(got - want[v]) <= rel_tol * want[v])) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "pagerank: vertex %zu has %.17g, expected %.17g", v, got,
                    want[v]);
      return buf;
    }
  }
  return "";
}

}  // namespace oracle
