// dnebench: the Distributed NE benchmark program. run.py builds it and
// drives it; the subcommands are
//
//   dnebench gen  --scale=S --edge-factor=F --seed=N --out=FILE
//       raw RMAT edges (duplicates, self-loops) as a binary edge file;
//   dnebench prep --input=RAW --out=CANON --t0-ns=T
//       load + Graph::Build + save the canonical edge file the out-of-core
//       workload streams; prints "prep_s <seconds since T>";
//   dnebench run  --workload=W --input=RAW [--canon=CANON --setup-s=X]
//                 --seed=N --seconds=S --trace=0|1 --work-dir=DIR --t0-ns=T
//       one measured run of workload W; the last stdout line is the result
//       object run.py passes on.
//
// T is CLOCK_MONOTONIC in nanoseconds, taken by the parent just before it
// starts the process, so a set-up time counts from the process's start.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "apps/serve_server.h"
#include "apps/serve_transport.h"
#include "gen/rmat.h"
#include "graph/edge_stream_reader.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "metrics/partition_metrics.h"
#include "oracle.h"
#include "partition/dne/dne_partitioner.h"
#include "partition/dne/dne_process_transport.h"
#include "runtime/communicator.h"
#include "runtime/host_topology.h"
#include "trace.h"

namespace {

using Clock = std::chrono::steady_clock;
using dnebench::GlobalTracer;
using dnebench::ScopedSpan;

// ---- Workload constants ----------------------------------------------------

constexpr std::uint32_t kPartitions = 16;
constexpr double kAlpha = 1.1;
constexpr int kThreads = 4;    // DNE host threads of in-process partitioning
constexpr int kRankProcs = 4;  // rank processes: out-of-core run, serving
constexpr std::uint32_t kCheckpointEvery = 32;
constexpr std::uint32_t kPageRankIterations = 10;
constexpr double kPageRankDamping = 0.85;
constexpr double kPageRankRelTol = 1e-9;
// Serving rounds (PageRank, SSSP, WCC) of the out-of-core run, at least:
// enough for a median per kind at scale 20, where a round takes about 2 s.
constexpr int kOocMinServeRounds = 6;
// SSSP + WCC pairs per out-of-core serving round, after its PageRank query.
// At scale 20 a PageRank query takes about 1.2 s and the two others about
// 0.2 s each: three pairs give the short kinds three times the samples for
// about half again the round time. (The serving workload keeps one pair: its
// rounds are short enough to give every kind about 50 samples.)
constexpr int kOocShortPairs = 3;
// Rounds per serving-cluster launch. A run relaunches the rank processes
// between segments: on the 4-vCPU host about one launch in four ran 20-25%
// slower for its whole life, so several launches per run keep one unlucky
// launch from deciding the run's medians. While the cluster is down between
// two segments, the run makes one more partition call, so that partition
// calls and serving rounds sample the whole measured window alike: the
// host's speed drifts over tens of seconds, and a metric measured only in
// one part of the window would follow that drift.
constexpr int kOocRoundsPerLaunch = 2;
constexpr int kServeRoundsPerLaunch = 5;

constexpr const char* kOoc = "rmat20-ooc-shm-ckpt";
constexpr const char* kServe = "serve-rmat18-process";

// ---- Flags -----------------------------------------------------------------

struct Args {
  std::string cmd;
  std::map<std::string, std::string> kv;

  std::string Str(const std::string& k, const std::string& def = "") const {
    auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  double Num(const std::string& k, double def) const {
    auto it = kv.find(k);
    return it == kv.end() ? def : std::stod(it->second);
  }
  std::uint64_t U64(const std::string& k, std::uint64_t def) const {
    auto it = kv.find(k);
    return it == kv.end() ? def : std::stoull(it->second);
  }
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  if (argc > 1) a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    // Every flag is --key=value.
    const std::string s = argv[i];
    const std::size_t eq = s.find('=');
    if (s.rfind("--", 0) != 0 || eq == std::string::npos) continue;
    a.kv[s.substr(2, eq - 2)] = s.substr(eq + 1);
  }
  return a;
}

// ---- Small helpers ---------------------------------------------------------

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Seconds from the process-start stamp --t0-ns to `t`. The stamp is
/// CLOCK_MONOTONIC nanoseconds, the clock steady_clock reads on Linux.
double SecondsFromStart(const Args& a, Clock::time_point t = Clock::now()) {
  const std::int64_t t_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count();
  return static_cast<double>(t_ns -
                             static_cast<std::int64_t>(a.U64("t0-ns", 0))) /
         1e9;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// The spread of a run's samples, on stderr: how much of a metric's
/// run-to-run spread is the host and how much is sampling.
void LogSamples(const char* name, std::vector<double> xs) {
  if (xs.empty()) return;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  std::fprintf(stderr,
               "samples %s: n=%zu min=%.4g q1=%.4g median=%.4g q3=%.4g "
               "max=%.4g\n",
               name, n, xs[0], xs[n / 4], Median(xs), xs[(3 * n) / 4],
               xs[n - 1]);
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Peak resident set of this process (ru_maxrss), in MB of 2^20 bytes.
double SelfPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMiB;
}

std::uint64_t Fnv(const std::vector<dne::PartitionId>& xs) {
  std::uint64_t h = 1469598103934665603ull;
  for (const dne::PartitionId x : xs) {
    h ^= x;
    h *= 1099511628211ull;
  }
  return h;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Host fingerprint printed with every run: cores, NUMA nodes, kernel,
/// compiler, build type and whether the CPU has AVX2 (the Phase-C
/// intersection kernels dispatch on it).
std::string HostFingerprint() {
  utsname u{};
  uname(&u);
  bool avx2 = false;
#if defined(__x86_64__)
  __builtin_cpu_init();
  avx2 = __builtin_cpu_supports("avx2");
#endif
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"cores\": %ld, \"numa_nodes\": %d, \"kernel\": \"%s %s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", \"avx2\": %s}",
                sysconf(_SC_NPROCESSORS_ONLN), dne::CountNumaNodes(),
                JsonEscape(u.sysname).c_str(), JsonEscape(u.release).c_str(),
                DNEBENCH_COMPILER, DNEBENCH_BUILD_TYPE,
                avx2 ? "true" : "false");
  return buf;
}

// ---- Result reporting ------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one run reports. Metrics of both sets are always filled; the
/// printed set depends on --trace.
struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed checks

  void E2e(const std::string& n, double v, const std::string& u) {
    e2e.push_back({n, v, u});
  }
  void Layer(const std::string& n, double v, const std::string& u) {
    layer.push_back({n, v, u});
  }
  void Check(const std::string& what, const std::string& err) {
    if (!err.empty()) errors.push_back(what + ": " + err);
  }

  int Print(bool traced) const {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "check failed: %s\n", e.c_str());
    }
    const std::vector<Metric>& ms = traced ? layer : e2e;
    std::string out = "{\"correct\": ";
    out += errors.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
      out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return errors.empty() ? 0 : 1;
  }
};

// ---- Layer timing wrappers (traced runs only) ------------------------------

/// InProcessCommunicator behind a stopwatch: every collective is timed and
/// counted. Injected through PartitionContext::communicator, under which
/// DNE runs exactly its in-process loop.
class TimedCommunicator final : public dne::Communicator {
 public:
  explicit TimedCommunicator(int ranks) : inner_(ranks) {}

  int num_ranks() const override { return inner_.num_ranks(); }
  const std::vector<int>& local_ranks() const override {
    return inner_.local_ranks();
  }
  void SetLedger(dne::CommLedger* ledger) override { inner_.SetLedger(ledger); }

  dne::Status Exchange(dne::DneMsgKind k,
                       dne::RankMailboxes<dne::SelectRequest>* m) override {
    return Timed([&] { return inner_.Exchange(k, m); });
  }
  dne::Status Exchange(dne::DneMsgKind k,
                       dne::RankMailboxes<dne::VertexPartPair>* m) override {
    return Timed([&] { return inner_.Exchange(k, m); });
  }
  dne::Status Exchange(dne::DneMsgKind k,
                       dne::RankMailboxes<dne::BoundaryReport>* m) override {
    return Timed([&] { return inner_.Exchange(k, m); });
  }
  dne::Status Exchange(dne::DneMsgKind k,
                       dne::RankMailboxes<dne::Edge>* m) override {
    return Timed([&] { return inner_.Exchange(k, m); });
  }
  dne::Status Exchange(dne::DneMsgKind k,
                       dne::RankMailboxes<dne::VertexId>* m) override {
    return Timed([&] { return inner_.Exchange(k, m); });
  }
  dne::Status BeginExchange(
      dne::DneMsgKind k, dne::RankMailboxes<dne::VertexPartPair>* m) override {
    return Timed([&] { return inner_.BeginExchange(k, m); });
  }
  dne::Status FinishExchange(
      dne::DneMsgKind k, dne::RankMailboxes<dne::VertexPartPair>* m) override {
    return Timed([&] { return inner_.FinishExchange(k, m); });
  }
  dne::Status ExchangeStepEnd(
      dne::RankMailboxes<dne::BoundaryReport>* reports,
      dne::RankMailboxes<dne::Edge>* handoff,
      const std::vector<std::uint64_t>& local_peeks,
      std::vector<std::uint64_t>* all_peeks,
      std::vector<std::uint64_t>* handoff_totals) override {
    return Timed([&] {
      return inner_.ExchangeStepEnd(reports, handoff, local_peeks, all_peeks,
                                    handoff_totals);
    });
  }
  dne::Status AllGatherU64(const std::vector<std::uint64_t>& local_vals,
                           std::vector<std::uint64_t>* all) override {
    return Timed([&] { return inner_.AllGatherU64(local_vals, all); });
  }
  dne::Status Barrier() override {
    return Timed([&] { return inner_.Barrier(); });
  }

  double seconds() const { return seconds_; }
  std::uint64_t calls() const { return calls_; }

 private:
  template <typename F>
  dne::Status Timed(F&& f) {
    const Clock::time_point t = Clock::now();
    dne::Status st = f();
    seconds_ += SecondsSince(t);
    ++calls_;
    return st;
  }

  dne::InProcessCommunicator inner_;
  double seconds_ = 0.0;
  std::uint64_t calls_ = 0;
};

/// ServeBackend behind a stopwatch: records how long each Execute ran, so
/// the time a request waited in the server is latency minus execute. Only
/// the server's single worker thread calls Execute.
class TimedBackend final : public dne::ServeBackend {
 public:
  explicit TimedBackend(dne::ServeBackend* inner) : inner_(inner) {}
  std::uint64_t num_vertices() const override { return inner_->num_vertices(); }
  dne::Status Execute(const dne::ServeRequest& req,
                      const std::atomic<bool>* cancel,
                      const Clock::time_point* deadline,
                      dne::ServeResponse* resp) override {
    ScopedSpan span("apps.execute", request_span.load());
    const Clock::time_point t = Clock::now();
    dne::Status st = inner_->Execute(req, cancel, deadline, resp);
    last_execute_s_.store(SecondsSince(t));
    return st;
  }
  double last_execute_s() const { return last_execute_s_.load(); }
  /// The client's span of the request about to run (closed loop: at most
  /// one request is in flight), the parent of the execute span.
  std::atomic<int> request_span{-1};

 private:
  dne::ServeBackend* inner_;
  std::atomic<double> last_execute_s_{0.0};
};

// ---- Partition checks ------------------------------------------------------

/// Per-rank budget caps let a partition overshoot ceil(alpha |E| / |P|) by
/// at most one edge per rank in the superstep that fills it
/// (dne_rank_state.cc: every rank keeps max(1, remaining / ranks)).
constexpr std::uint64_t kOvershoot = kPartitions;

/// Recounts `assignment` with the oracle and holds it against the program's
/// ComputePartitionMetrics (and, when given, the counts the run reported).
/// Returns the checked RF.
double CheckPartitionResult(const dne::Graph& g, const dne::EdgePartition& ep,
                            const std::vector<std::uint64_t>* run_counts,
                            Report* rep) {
  const std::vector<oracle::EdgeRec> edges =
      oracle::CopyEdges(g.edges().edges());
  oracle::PartitionRecount recount;
  std::string err = oracle::RecountPartition(
      edges, g.NumVertices(), ep.assignment(), kPartitions, &recount);
  if (!err.empty()) {
    rep->Check("partition cover", err);
    return 0.0;
  }
  const dne::PartitionMetrics m = dne::ComputePartitionMetrics(g, ep);
  oracle::ReportedPartition reported;
  reported.replication_factor = m.replication_factor;
  reported.edges_per_partition = m.edges_per_partition;
  rep->Check("partition", oracle::CheckPartition(recount, reported,
                                                 g.NumEdges(), kPartitions,
                                                 kAlpha, kOvershoot));
  if (run_counts != nullptr && *run_counts != recount.edges_per_partition) {
    rep->Check("partition", "the run's per-partition counts differ from the "
                            "recount");
  }
  return recount.replication_factor;
}

// ---- Serving ---------------------------------------------------------------

struct ServeOutcome {
  double shard_build_s = 0.0;
  // Cluster launch + one WCC query, per launch.
  std::vector<double> launch_s;
  double loop_s = 0.0;  // the measured rounds only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms[3];
  std::vector<double> execute_ms[3];
  std::vector<double> supersteps[3];
  std::vector<double> queue_wait_ms;
  std::vector<double> pagerank_sync_bytes;
  std::vector<double> wire_frames;
  std::uint64_t rank_peak_rss_bytes = 0;
  Clock::time_point ready;  // the warm-up query returned
  double peak_rss_mb = 0.0;  // this process, when the serving loop ended
  // Round times of a traced run, which alternates untraced and traced
  // rounds to measure the tracing overhead.
  std::vector<double> traced_round_s;
  std::vector<double> untraced_round_s;
};

/// SSSP sources for a run: drawn by seed, uniformly over the vertices that
/// have at least one edge.
std::vector<dne::VertexId> SsspSources(const dne::Graph& g, std::uint64_t seed,
                                       std::size_t count) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 0x5551);
  std::vector<dne::VertexId> out;
  while (out.size() < count) {
    const dne::VertexId v = rng() % g.NumVertices();
    if (g.degree(v) > 0) out.push_back(v);
  }
  return out;
}

/// Serves `g`/`ep` from a ProcessServeBackend (kRankProcs rank processes,
/// socket mesh) behind a ServeServer, as one closed-loop client: a warm-up
/// WCC query (which launches the cluster), then whole rounds of one PageRank
/// query and `short_pairs` SSSP + WCC pairs until `seconds` have passed
/// since the warm-up returned and at least `min_rounds` ran. Every
/// `rounds_per_launch` rounds the cluster is shut down, `between_launches`
/// runs, and another warm-up query relaunches the cluster; the window counts
/// all three, the round latencies and queries_per_s do not. Every response
/// is checked against the oracles after the loop.
ServeOutcome ServeRounds(const dne::Graph& g, const dne::EdgePartition& ep,
                         std::uint64_t seed, double seconds, int min_rounds,
                         int rounds_per_launch, int short_pairs,
                         const std::function<void()>& between_launches,
                         Report* rep) {
  ServeOutcome out;
  const std::vector<dne::VertexId> sources = SsspSources(g, seed, 4096);
  // What the checks need of each completed response: its fingerprint, and
  // the full values of the first PageRank response (every PageRank request
  // is the same computation, so the others must match it bit for bit).
  struct Done {
    dne::ServeAlgo algo;
    dne::VertexId source;
    std::uint64_t fingerprint;
  };
  std::vector<Done> done;
  std::vector<std::uint64_t> first_pagerank;
  auto keep = [&](const dne::ServeRequest& req, dne::ServeResponse* r) {
    done.push_back({req.algo, req.source, oracle::Fingerprint(r->bits)});
    if (req.algo == dne::ServeAlgo::kPageRank && first_pagerank.empty()) {
      first_pagerank = std::move(r->bits);
    }
  };

  Clock::time_point t = Clock::now();
  dne::ProcessServeOptions popts;
  popts.nproc = kRankProcs;
  std::unique_ptr<dne::ProcessServeBackend> backend;
  {
    ScopedSpan span("apps.shard_build");
    backend = std::make_unique<dne::ProcessServeBackend>(g, ep, popts);
  }
  out.shard_build_s = SecondsSince(t);
  TimedBackend timed(backend.get());
  {
    dne::ServeServerOptions sopts;
    dne::ServeServer server(&timed, sopts);
    std::uint64_t next_id = 1;
    // One request, submitted and awaited: returns the client-side latency.
    auto run_one = [&](const dne::ServeRequest& req, double* latency_s) {
      ScopedSpan span("apps.request");
      timed.request_span.store(span.id());
      std::promise<std::pair<dne::ServeResponse, Clock::time_point>> reply;
      auto fut = reply.get_future();
      const Clock::time_point t0 = Clock::now();
      const dne::Status sub =
          server.Submit(req, /*deadline_ms=*/0, [&reply](dne::ServeResponse r) {
            reply.set_value({std::move(r), Clock::now()});
          });
      if (!sub.ok()) {
        dne::ServeResponse r;
        r.status = sub;
        return r;
      }
      auto [resp, t1] = fut.get();
      *latency_s = std::chrono::duration<double>(t1 - t0).count();
      return resp;
    };

    // The backend launches its cluster lazily on the next request.
    auto launch = [&] {
      ScopedSpan span("apps.launch");
      dne::ServeRequest warm;
      warm.req_id = next_id++;
      warm.algo = dne::ServeAlgo::kWcc;
      double launch_s = 0.0;
      dne::ServeResponse r = run_one(warm, &launch_s);
      out.launch_s.push_back(launch_s);
      if (r.status.ok()) {
        keep(warm, &r);
      } else {
        rep->Check("warm-up query", r.status.ToString());
      }
    };
    launch();
    out.ready = Clock::now();
    const bool traced = GlobalTracer().enabled();

    // Indexed like ServeOutcome::latency_ms.
    const dne::ServeAlgo kinds[3] = {dne::ServeAlgo::kPageRank,
                                     dne::ServeAlgo::kSssp,
                                     dne::ServeAlgo::kWcc};
    std::size_t sssp_i = 0;
    for (int round = 0;
         round < min_rounds || SecondsSince(out.ready) < seconds; ++round) {
      if (round > 0 && round % rounds_per_launch == 0) {
        // Closed loop: no request is in flight, and the worker touches the
        // backend again only after the next Submit.
        GlobalTracer().Enable(traced);
        backend->Shutdown();
        between_launches();
        GlobalTracer().Enable(traced);
        launch();
      }
      const bool trace_this = traced && round % 2 == 1;
      GlobalTracer().Enable(trace_this);
      const Clock::time_point round_t = Clock::now();
      for (int q = 0; q < 1 + 2 * short_pairs; ++q) {
        const int k = q == 0 ? 0 : 2 - q % 2;  // PageRank, then SSSP, WCC...
        dne::ServeRequest req;
        req.req_id = next_id++;
        req.algo = kinds[k];
        req.iterations = kPageRankIterations;
        if (req.algo == dne::ServeAlgo::kSssp) {
          req.source = sources[sssp_i++ % sources.size()];
        }
        double lat = 0.0;
        dne::ServeResponse r = run_one(req, &lat);
        ++out.attempted;
        if (!r.status.ok()) {
          ++out.failed;
          std::fprintf(stderr, "request %llu failed: %s\n",
                       static_cast<unsigned long long>(req.req_id),
                       r.status.ToString().c_str());
          continue;
        }
        const double exec = timed.last_execute_s();
        out.latency_ms[k].push_back(lat * 1e3);
        out.execute_ms[k].push_back(exec * 1e3);
        out.queue_wait_ms.push_back((lat - exec) * 1e3);
        out.supersteps[k].push_back(static_cast<double>(r.supersteps));
        out.wire_frames.push_back(static_cast<double>(r.wire_frames));
        if (k == 0) {
          out.pagerank_sync_bytes.push_back(static_cast<double>(r.data_bytes));
        }
        keep(req, &r);
      }
      const double round_s = SecondsSince(round_t);
      out.loop_s += round_s;
      if (traced) {
        (trace_this ? out.traced_round_s : out.untraced_round_s)
            .push_back(round_s);
      }
    }
    GlobalTracer().Enable(traced);
    server.Drain();
  }
  std::fprintf(stderr, "serving window: %.1f s from the first launch\n",
               SecondsSince(out.ready));
  out.rank_peak_rss_bytes = backend->peak_child_rss_bytes();
  backend->Shutdown();
  backend.reset();
  out.peak_rss_mb = SelfPeakRssMb();

  // Oracle checks of every completed response.
  const Clock::time_point checks_t = Clock::now();
  const std::vector<oracle::EdgeRec> edges =
      oracle::CopyEdges(g.edges().edges());
  const oracle::Adjacency adj = oracle::BuildAdjacency(edges, g.NumVertices());
  if (!first_pagerank.empty()) {
    rep->Check("pagerank",
               oracle::ComparePageRank(
                   first_pagerank,
                   oracle::PageRank(adj, kPageRankIterations,
                                    kPageRankDamping),
                   kPageRankRelTol));
  }
  const std::uint64_t pagerank_fp = oracle::Fingerprint(first_pagerank);
  const std::uint64_t wcc_fp = oracle::Fingerprint(
      oracle::ComponentMinLabels(edges, g.NumVertices()));
  // One BFS per distinct SSSP source, on kThreads threads: the cluster is
  // down and nothing is measured now.
  std::map<dne::VertexId, std::uint64_t> bfs_fp;
  for (const Done& d : done) {
    if (d.algo == dne::ServeAlgo::kSssp) bfs_fp.emplace(d.source, 0);
  }
  {
    std::vector<std::pair<const dne::VertexId, std::uint64_t>*> todo;
    for (auto& kv : bfs_fp) todo.push_back(&kv);
    std::vector<std::future<void>> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.push_back(std::async(std::launch::async, [&todo, &adj, w] {
        for (std::size_t i = w; i < todo.size(); i += kThreads) {
          todo[i]->second =
              oracle::Fingerprint(oracle::BfsDistances(adj, todo[i]->first));
        }
      }));
    }
    for (std::future<void>& f : workers) f.get();
  }
  for (const Done& d : done) {
    switch (d.algo) {
      case dne::ServeAlgo::kPageRank:
        if (d.fingerprint != pagerank_fp) {
          rep->Check("pagerank", "a response differs from the first one");
        }
        break;
      case dne::ServeAlgo::kSssp: {
        if (d.fingerprint != bfs_fp.at(d.source)) {
          rep->Check("sssp", "distances from source " +
                                 std::to_string(d.source) +
                                 " differ from the BFS oracle");
        }
        break;
      }
      case dne::ServeAlgo::kWcc:
        if (d.fingerprint != wcc_fp) {
          rep->Check("wcc", "labels differ from the union-find oracle");
        }
        break;
    }
  }
  std::fprintf(stderr, "serving checks took %.1f s\n", SecondsSince(checks_t));
  return out;
}

void ReportServe(const ServeOutcome& s, Report* rep) {
  LogSamples("pagerank_ms", s.latency_ms[0]);
  LogSamples("sssp_ms", s.latency_ms[1]);
  LogSamples("wcc_ms", s.latency_ms[2]);
  rep->E2e("pagerank_ms", Median(s.latency_ms[0]), "ms");
  rep->E2e("sssp_ms", Median(s.latency_ms[1]), "ms");
  rep->E2e("wcc_ms", Median(s.latency_ms[2]), "ms");
  const std::uint64_t ok = s.attempted - s.failed;
  rep->E2e("queries_per_s",
           s.loop_s > 0 ? static_cast<double>(ok) / s.loop_s : 0.0, "1/s");
  rep->Layer("apps.shard_build_s", s.shard_build_s, "s");
  rep->Layer("apps.launch_s", Median(s.launch_s), "s");
  rep->Layer("apps.pagerank_execute_ms", Median(s.execute_ms[0]), "ms");
  rep->Layer("apps.sssp_execute_ms", Median(s.execute_ms[1]), "ms");
  rep->Layer("apps.wcc_execute_ms", Median(s.execute_ms[2]), "ms");
  rep->Layer("apps.queue_wait_ms", Median(s.queue_wait_ms), "ms");
  rep->Layer("apps.pagerank_supersteps", Median(s.supersteps[0]), "count");
  rep->Layer("apps.sssp_supersteps", Median(s.supersteps[1]), "count");
  rep->Layer("apps.wcc_supersteps", Median(s.supersteps[2]), "count");
  rep->Layer("apps.sync_bytes_per_pagerank", Median(s.pagerank_sync_bytes),
             "bytes");
  rep->Layer("apps.wire_frames", Median(s.wire_frames), "count");
  rep->attempted += s.attempted;
  rep->failed += s.failed;
}

// ---- DNE stats -> per-layer metrics ----------------------------------------

/// max / mean of the per-partition edge counts.
double EdgeBalance(const std::vector<std::uint64_t>& counts) {
  std::uint64_t mx = 0, sum = 0;
  for (const std::uint64_t c : counts) {
    mx = std::max(mx, c);
    sum += c;
  }
  if (sum == 0) return 0.0;
  return static_cast<double>(mx) * static_cast<double>(counts.size()) /
         static_cast<double>(sum);
}


/// Medians over the measured partition runs of the per-layer DNE numbers.
struct DneLayer {
  std::vector<double> distribute, a, b, c, d, exchange_s;
  dne::DneStats last;
  std::uint64_t exchange_calls = 0;

  void Add(const dne::DneStats& s) {
    distribute.push_back(s.host_distribute_seconds);
    a.push_back(s.host_phase_a_seconds);
    b.push_back(s.host_phase_b_seconds);
    c.push_back(s.host_phase_c_seconds);
    d.push_back(s.host_phase_d_seconds);
    last = s;
  }
  void Emit(double stream_read_s, Report* rep) const {
    rep->Layer("graph.stream_read_s", stream_read_s, "s");
    rep->Layer("dne.distribute_s", Median(distribute), "s");
    rep->Layer("dne.phase_a_s", Median(a), "s");
    rep->Layer("dne.phase_b_s", Median(b), "s");
    rep->Layer("dne.phase_c_s", Median(c), "s");
    rep->Layer("dne.phase_d_s", Median(d), "s");
    rep->Layer("dne.supersteps", static_cast<double>(last.iterations), "count");
    rep->Layer("dne.one_hop_edges", static_cast<double>(last.one_hop_edges),
               "count");
    rep->Layer("dne.two_hop_edges", static_cast<double>(last.two_hop_edges),
               "count");
    rep->Layer("dne.random_restarts",
               static_cast<double>(last.random_restarts), "count");
    rep->Layer("dne.boundary_imbalance", last.boundary_imbalance, "ratio");
    rep->Layer("dne.edge_balance", EdgeBalance(last.edges_per_partition),
               "ratio");
    rep->Layer("dne.tracked_peak_mb",
               static_cast<double>(last.peak_memory_bytes) / kMiB, "MB");
    rep->Layer("runtime.exchange_s", Median(exchange_s), "s");
    rep->Layer("runtime.exchange_calls", static_cast<double>(exchange_calls),
               "count");
    rep->Layer("runtime.payload_bytes", static_cast<double>(last.comm_bytes),
               "bytes");
    rep->Layer("runtime.wire_bytes", static_cast<double>(last.wire_bytes),
               "bytes");
    rep->Layer("runtime.wire_frames", static_cast<double>(last.wire_frames),
               "count");
    rep->Layer("runtime.checkpoint_bytes",
               static_cast<double>(last.checkpoint_bytes), "bytes");
    rep->Layer("runtime.checkpoint_s", last.checkpoint_seconds, "s");
  }
};

/// The tracing overhead line of a traced run: median traced operation time
/// against the median untraced one, both measured in this run.
void PrintOverhead(const std::vector<double>& traced,
                   const std::vector<double>& untraced, const char* op) {
  const double t = Median(traced);
  const double u = Median(untraced);
  std::printf("tracing overhead: %+.2f%% (%s: traced median %.4f s over %zu, "
              "untraced median %.4f s over %zu)\n",
              u > 0 ? (t / u - 1.0) * 100.0 : 0.0, op, t, traced.size(), u,
              untraced.size());
}

/// One timed pass over an edge file through the library's stream reader
/// (traced runs only).
double StreamReadPass(const std::string& path, Report* rep) {
  ScopedSpan span("graph.stream_read");
  const Clock::time_point t = Clock::now();
  std::unique_ptr<dne::EdgeStreamReader> reader;
  dne::Status st = dne::OpenEdgeStream(path, "bin", 1 << 20, &reader);
  std::uint64_t n = 0;
  if (st.ok()) {
    std::vector<dne::Edge> chunk;
    for (;;) {
      st = reader->NextChunk(&chunk);
      if (!st.ok() || chunk.empty()) break;
      n += chunk.size();
    }
  }
  const double dt = SecondsSince(t);
  if (!st.ok()) {
    rep->Check("stream read", st.ToString());
  } else if (n != reader->EdgeCountHint()) {
    rep->Check("stream read", "edge count differs from the file header");
  }
  return dt;
}

dne::Status LoadAndBuild(const std::string& path, dne::Graph* g,
                         double* load_s, double* build_s) {
  dne::EdgeList raw;
  Clock::time_point t = Clock::now();
  {
    ScopedSpan span("graph.load");
    DNE_RETURN_IF_ERROR(dne::LoadEdgeListBinary(path, &raw));
  }
  *load_s = SecondsSince(t);
  t = Clock::now();
  {
    ScopedSpan span("graph.build");
    *g = dne::Graph::Build(std::move(raw));
  }
  *build_s = SecondsSince(t);
  return dne::Status::OK();
}

dne::DneOptions BaseDneOptions(std::uint64_t seed) {
  dne::DneOptions opt;
  opt.alpha = kAlpha;
  opt.seed = seed;
  opt.num_threads = kThreads;
  return opt;
}

// ---- rmat20-ooc-shm-ckpt: out-of-core partitioning over shm rings -----------

int RunOoc(const Args& a, Report* rep) {
  const std::uint64_t seed = a.U64("seed", 1);
  const double seconds = a.Num("seconds", 10);
  const bool traced = GlobalTracer().enabled();
  const std::string canon = a.Str("canon");
  const std::string work = a.Str("work-dir");

  std::unique_ptr<dne::EdgeStreamReader> reader;
  dne::Status st = dne::OpenEdgeStream(canon, "bin", 1 << 20, &reader);
  if (!st.ok()) {
    std::fprintf(stderr, "open: %s\n", st.ToString().c_str());
    return 2;
  }
  dne::DneStreamSpec spec;
  spec.path = canon;
  spec.format = "bin";
  spec.num_vertices = reader->NumVerticesHint();
  spec.num_edges = reader->EdgeCountHint();
  spec.gather_assignment = true;
  reader.reset();
  // One timed pass over the canonical file through the stream reader: the
  // read every rank process makes to pick out its shard.
  const double stream_read_s = traced ? StreamReadPass(canon, rep) : 0.0;

  dne::DneOptions opt = BaseDneOptions(seed);
  opt.transport = dne::DneTransport::kShm;
  opt.ranks = kRankProcs;
  opt.checkpoint_every = kCheckpointEvery;
  const std::string ckpt_dir = work + "/ckpt";
  std::filesystem::create_directories(ckpt_dir);
  if (ckpt_dir.size() >= sizeof(opt.checkpoint_dir)) {
    std::fprintf(stderr, "checkpoint dir path too long\n");
    return 2;
  }
  std::memcpy(opt.checkpoint_dir, ckpt_dir.c_str(), ckpt_dir.size() + 1);

  std::vector<double> times, traced_times, untraced_times;
  DneLayer layer;
  dne::EdgePartition ep;
  dne::DneStats first_stats;
  std::uint64_t first_hash = 0;
  int calls = 0;
  // One partition call. A traced run alternates untraced and traced calls
  // and takes the per-layer numbers from the traced ones.
  auto partition_once = [&] {
    const bool trace_this = traced && calls % 2 == 1;
    ++calls;
    GlobalTracer().Enable(trace_this);
    dne::EdgePartition part;
    dne::DneStats stats;
    const Clock::time_point t = Clock::now();
    {
      ScopedSpan span("dne.partition_stream");
      st = dne::RunDneProcessTransportStream(
          spec, kPartitions, opt, seed, kRankProcs, dne::PartitionContext{},
          &part, &stats);
    }
    const double dt = SecondsSince(t);
    GlobalTracer().Enable(traced);
    ++rep->attempted;
    if (!st.ok()) {
      ++rep->failed;
      std::fprintf(stderr, "partition: %s\n", st.ToString().c_str());
      return;
    }
    times.push_back(dt);
    (trace_this ? traced_times : untraced_times).push_back(dt);
    if (!traced || trace_this) layer.Add(stats);
    const std::uint64_t h = Fnv(part.assignment());
    if (first_hash == 0) {
      first_hash = h;
      ep = std::move(part);
      first_stats = stats;
    } else if (h != first_hash) {
      rep->Check("determinism", "repeated partitions differ");
    }
  };

  // The first call is made before the coordinator loads the graph, and the
  // memory figures come from it: the coordinator's peak, and the ranks'
  // peaks, which would otherwise include the graph pages they inherit at
  // fork.
  const Clock::time_point first_t = Clock::now();
  partition_once();
  const double first_s = SecondsSince(first_t);
  const double peak_rss_mb = SelfPeakRssMb();
  std::uint64_t rank_rss = 0;
  for (const std::uint64_t b : first_stats.process_rss_bytes) {
    rank_rss = std::max(rank_rss, b);
  }
  if (ep.num_edges() != spec.num_edges) {
    rep->Check("partition", "the first partition run failed");
    return 0;
  }

  // Checks and serving need the graph: load it now. This is outside the
  // measured window.
  dne::Graph g;
  double load_s = 0, build_s = 0;
  st = LoadAndBuild(canon, &g, &load_s, &build_s);
  if (!st.ok()) {
    rep->Check("load canonical", st.ToString());
    return 0;
  }
  // The canonical file, read by the oracle's own parser, must be exactly
  // the graph the program builds from it.
  {
    std::uint64_t nv = 0;
    std::vector<oracle::EdgeRec> file_edges;
    rep->Check("canonical file",
               oracle::ReadEdgeFile(canon, &nv, &file_edges));
    const std::vector<dne::Edge>& ge = g.edges().edges();
    bool same = file_edges.size() == ge.size();
    for (std::size_t i = 0; same && i < ge.size(); ++i) {
      same = file_edges[i].src == ge[i].src && file_edges[i].dst == ge[i].dst;
    }
    if (!same) rep->Check("canonical file", "differs from the built graph");
  }
  const double rf =
      CheckPartitionResult(g, ep, &first_stats.edges_per_partition, rep);

  // The rest of the window: serving rounds, with one more partition call
  // between each two cluster launches.
  std::fprintf(stderr, "graph loaded and checked in %.1f s\n",
               SecondsSince(first_t) - first_s);
  const ServeOutcome serve = ServeRounds(
      g, ep, seed, std::max(0.0, seconds - first_s), kOocMinServeRounds,
      kOocRoundsPerLaunch, kOocShortPairs, partition_once, rep);
  std::filesystem::remove_all(ckpt_dir);

  rep->E2e("setup_s", a.Num("setup-s", 0.0), "s");
  LogSamples("partition_s", times);
  rep->E2e("partition_s", Median(times), "s");
  rep->E2e("replication_factor", rf, "ratio");
  rep->E2e("peak_rss_mb", peak_rss_mb, "MB");
  rep->E2e("rank_peak_rss_mb", static_cast<double>(rank_rss) / kMiB, "MB");
  ReportServe(serve, rep);
  rep->Layer("graph.load_s", load_s, "s");
  rep->Layer("graph.build_s", build_s, "s");
  layer.Emit(stream_read_s, rep);
  if (traced) PrintOverhead(traced_times, untraced_times, "partition");
  return 0;
}

// ---- serve-rmat18-process: served analytics ---------------------------------

int RunServe(const Args& a, Report* rep) {
  const std::uint64_t seed = a.U64("seed", 1);
  const double seconds = a.Num("seconds", 10);
  const bool traced = GlobalTracer().enabled();
  dne::Graph g;
  double load_s = 0, build_s = 0;
  dne::Status st = LoadAndBuild(a.Str("input"), &g, &load_s, &build_s);
  if (!st.ok()) {
    std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
    return 2;
  }
  dne::DnePartitioner dne(BaseDneOptions(seed));
  TimedCommunicator timed(static_cast<int>(kPartitions));
  dne::PartitionContext ctx;
  if (traced) ctx.communicator = &timed;
  dne::EdgePartition ep;
  const Clock::time_point t = Clock::now();
  {
    ScopedSpan span("dne.partition");
    st = dne.Partition(g, kPartitions, ctx, &ep);
  }
  const double partition_s = SecondsSince(t);
  if (!st.ok()) {
    std::fprintf(stderr, "partition: %s\n", st.ToString().c_str());
    return 2;
  }
  // One more untraced partition call between each two cluster launches, so
  // that partition_s samples the whole measured window (see
  // kOocRoundsPerLaunch).
  std::vector<double> partition_times{partition_s};
  const std::uint64_t hash = Fnv(ep.assignment());
  auto partition_again = [&] {
    GlobalTracer().Enable(false);
    dne::DnePartitioner again(BaseDneOptions(seed));
    dne::EdgePartition ep_again;
    const Clock::time_point t_again = Clock::now();
    const dne::Status s = again.Partition(g, kPartitions, &ep_again);
    partition_times.push_back(SecondsSince(t_again));
    if (!s.ok() || Fnv(ep_again.assignment()) != hash) {
      rep->Check("determinism", "a repeated partition differs or failed");
    }
  };
  const ServeOutcome serve =
      ServeRounds(g, ep, seed, seconds, traced ? 2 : 1, kServeRoundsPerLaunch,
                  /*short_pairs=*/1, partition_again, rep);
  const double peak_rss_mb = serve.peak_rss_mb;
  // Set-up ends when the warm-up query has returned.
  const double setup_s = SecondsFromStart(a, serve.ready);

  const double rf = CheckPartitionResult(
      g, ep, &dne.dne_stats().edges_per_partition, rep);

  DneLayer layer;
  layer.Add(dne.dne_stats());
  if (traced) {
    layer.exchange_s.push_back(timed.seconds());
    layer.exchange_calls = timed.calls();
  }
  rep->E2e("setup_s", setup_s, "s");
  LogSamples("partition_s", partition_times);
  rep->E2e("partition_s", Median(partition_times), "s");
  rep->E2e("replication_factor", rf, "ratio");
  rep->E2e("peak_rss_mb", peak_rss_mb, "MB");
  rep->E2e("rank_peak_rss_mb",
           static_cast<double>(serve.rank_peak_rss_bytes) / kMiB, "MB");
  ReportServe(serve, rep);
  rep->Layer("graph.load_s", load_s, "s");
  rep->Layer("graph.build_s", build_s, "s");
  layer.Emit(traced ? StreamReadPass(a.Str("input"), rep) : 0.0, rep);
  if (traced) {
    PrintOverhead(serve.traced_round_s, serve.untraced_round_s, "round");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  if (a.cmd == "gen") {
    dne::RmatOptions ro;
    ro.scale = static_cast<int>(a.U64("scale", 0));
    ro.edge_factor = static_cast<int>(a.U64("edge-factor", 16));
    ro.seed = a.U64("seed", 1);
    const dne::Status st =
        dne::SaveEdgeListBinary(a.Str("out"), dne::GenerateRmat(ro));
    if (!st.ok()) {
      std::fprintf(stderr, "gen: %s\n", st.ToString().c_str());
      return 2;
    }
    return 0;
  }
  if (a.cmd == "prep") {
    dne::Graph g;
    double load_s = 0, build_s = 0;
    dne::Status st = LoadAndBuild(a.Str("input"), &g, &load_s, &build_s);
    if (st.ok()) st = dne::SaveEdgeListBinary(a.Str("out"), g.edges());
    if (!st.ok()) {
      std::fprintf(stderr, "prep: %s\n", st.ToString().c_str());
      return 2;
    }
    std::printf("prep_s %.9f\n",
                SecondsFromStart(a));
    return 0;
  }
  if (a.cmd != "run") {
    std::fprintf(stderr, "usage: dnebench gen|prep|run --key=value ...\n");
    return 2;
  }
  const bool traced = a.U64("trace", 0) != 0;
  GlobalTracer().Enable(traced);
  const std::string workload = a.Str("workload");
  std::printf("host: %s\n", HostFingerprint().c_str());
  Report rep;
  int rc = 2;
  if (workload == kOoc) {
    rc = RunOoc(a, &rep);
  } else if (workload == kServe) {
    rc = RunServe(a, &rep);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  }
  if (rc != 0) return rc;
  if (traced) {
    const std::string path = a.Str("work-dir") + "/spans.json";
    if (!GlobalTracer().WriteChromeJson(path)) {
      rep.Check("trace", "cannot write " + path);
    } else {
      std::printf("spans: %zu written to %s\n", GlobalTracer().size(),
                  path.c_str());
    }
  }
  return rep.Print(traced);
}
