// Multi-tenant serving throughput: N concurrent sessions stream the same
// matched query workload through one serve::SearchServer — shared
// LibraryCache, shared thread-safe backend, fair block scheduler — and we
// measure aggregate queries/sec plus the latency each tenant actually
// feels: time from its first submit to its first *accepted* PSM arriving
// on on_accept (the Rolling-FDR stream, not the close() flush).
//
// Each session count runs twice against the same server:
//   cold  — fresh server, empty cache: the first open mmaps the artifact
//           and builds the backend (misses ≥ 1);
//   hot   — second round on the same server: every open is a cache hit,
//           no re-mapping, no re-encoding, backend reused.
// The JSON records the cache-counter deltas per round so the hot-open
// claim is checkable, not vibes.
//
// Every latency/throughput row is sourced from the server's own metrics
// registry (obs::Snapshot deltas over the round: serve.queries_total,
// serve.open_seconds, serve.first_psm_seconds) — the bench measures what
// the STATS verb reports, so the numbers here and the numbers a live
// operator scrapes are the same instruments.
//
// Usage: serve_throughput [--scale=1.0] [--refs=3000] [--queries=240]
//                         [--dim=2048] [--backend=ideal-hd]
//                         [--out=BENCH_serve.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "index/index_builder.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RoundResult {
  std::size_t sessions = 0;
  std::string phase;  ///< "cold" or "hot".
  double wall_s = 0.0;
  double qps = 0.0;
  double ttfp_p50_s = 0.0;  ///< Time to first accepted PSM, across tenants.
  double ttfp_p99_s = 0.0;
  double open_p50_s = 0.0;  ///< server.open() latency, across tenants.
  double open_max_s = 0.0;
  std::uint64_t cache_hits = 0;  ///< Deltas over this round only.
  std::uint64_t cache_misses = 0;
  std::uint64_t backend_hits = 0;
  std::uint64_t backend_donations = 0;
};

RoundResult run_round(oms::serve::SearchServer& server,
                      const std::string& phase, std::size_t n_sessions,
                      const std::string& artifact,
                      const oms::core::PipelineConfig& cfg,
                      const std::vector<oms::ms::Spectrum>& queries) {
  const oms::obs::Snapshot before = server.metrics_snapshot();

  std::vector<std::shared_ptr<oms::serve::Session>> sessions;
  for (std::size_t i = 0; i < n_sessions; ++i) {
    oms::serve::SessionConfig scfg;
    scfg.pipeline = cfg;
    sessions.push_back(server.open(artifact, std::move(scfg)));
  }

  const auto t_round = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n_sessions; ++i) {
    threads.emplace_back([&, i] {
      for (const oms::ms::Spectrum& q : queries) {
        (void)sessions[i]->submit(q);
      }
      (void)sessions[i]->close();
    });
  }
  for (auto& th : threads) th.join();
  const double wall = seconds_since(t_round);

  // Everything below comes out of the registry: the same histograms and
  // counters a live operator reads through the STATS verb, windowed to
  // this round by the snapshot delta. Cache totals surface as gauges
  // (set-to-current at scrape), so their round deltas subtract explicitly.
  const oms::obs::Snapshot after = server.metrics_snapshot();
  const oms::obs::Snapshot delta = after.since(before);
  const oms::obs::HistogramSnapshot* ttfp =
      delta.histogram("serve.first_psm_seconds");
  const oms::obs::HistogramSnapshot* open_h =
      delta.histogram("serve.open_seconds");
  const auto gauge_delta = [&](std::string_view name) {
    return static_cast<std::uint64_t>(after.gauge(name) - before.gauge(name));
  };

  RoundResult r;
  r.sessions = n_sessions;
  r.phase = phase;
  r.wall_s = wall;
  r.qps = static_cast<double>(delta.counter("serve.queries_total")) / wall;
  if (ttfp != nullptr) {
    r.ttfp_p50_s = ttfp->percentile(0.50);
    r.ttfp_p99_s = ttfp->percentile(0.99);
  }
  if (open_h != nullptr) {
    r.open_p50_s = open_h->percentile(0.50);
    r.open_max_s = open_h->percentile(1.0);
  }
  r.cache_hits = gauge_delta("serve.cache.hits");
  r.cache_misses = gauge_delta("serve.cache.misses");
  r.backend_hits = gauge_delta("serve.cache.backend_hits");
  r.backend_donations = gauge_delta("serve.cache.backend_donations");
  return r;
}

void write_json(const std::string& path, const std::vector<RoundResult>& rs,
                std::uint32_t dim, const std::string& backend,
                std::size_t references, std::size_t queries_per_session) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"serve_throughput\",\n  \"dim\": " << dim
      << ",\n  \"backend\": \"" << backend
      << "\",\n  \"references\": " << references
      << ",\n  \"queries_per_session\": " << queries_per_session
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const RoundResult& r = rs[i];
    out << "    {\"sessions\": " << r.sessions << ", \"phase\": \""
        << r.phase << "\", \"qps\": " << r.qps
        << ", \"wall_seconds\": " << r.wall_s
        << ", \"first_psm_p50_seconds\": " << r.ttfp_p50_s
        << ", \"first_psm_p99_seconds\": " << r.ttfp_p99_s
        << ", \"open_p50_seconds\": " << r.open_p50_s
        << ", \"open_max_seconds\": " << r.open_max_s
        << ", \"cache_hits\": " << r.cache_hits
        << ", \"cache_misses\": " << r.cache_misses
        << ", \"backend_hits\": " << r.backend_hits
        << ", \"backend_donations\": " << r.backend_donations << "}"
        << (i + 1 < rs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const oms::util::Cli cli(argc, argv);
  const double scale = cli.get_scaled("scale", 1.0);
  const auto n_refs = static_cast<std::size_t>(cli.get(
      "refs", static_cast<long>(std::max(800.0, 3000.0 * scale))));
  const auto n_queries = static_cast<std::size_t>(cli.get(
      "queries", static_cast<long>(std::max(60.0, 240.0 * scale))));
  const auto dim = static_cast<std::uint32_t>(cli.get("dim", 2048L));
  const std::string backend = cli.get("backend", std::string("ideal-hd"));
  const std::string out_path = cli.get("out", std::string("BENCH_serve.json"));

  oms::bench::print_header(
      "Multi-tenant serving: sessions sharing one cached library",
      "the ROADMAP's heavy-traffic serving goal on top of the paper's "
      "encode-offline/store-in-memory data flow (§4)");

  // Matched workload: queries are drawn from the same peptides the
  // artifact indexes, so the Rolling FDR stream has real accepts and
  // time-to-first-PSM measures the serving path, not filter starvation.
  oms::ms::WorkloadConfig data_cfg;
  data_cfg.reference_count = n_refs;
  data_cfg.query_count = n_queries;
  data_cfg.seed = 17;
  const auto workload = oms::ms::generate_workload(data_cfg);

  oms::core::PipelineConfig cfg = oms::bench::paper_pipeline_config(dim);
  cfg.backend_name = backend;

  const oms::bench::ScratchDir scratch;
  const std::string artifact = scratch.file("serve_bench.omsx");
  const oms::index::IndexBuilder builder(cfg);
  const auto build_stats = builder.build(workload.references, artifact);
  std::printf("artifact: %zu entries, %zu bytes; %zu queries/session, "
              "backend %s, D=%u\n\n",
              build_stats.entries, build_stats.file_bytes, n_queries,
              backend.c_str(), dim);

  const std::size_t session_counts[] = {1, 4, 16};
  std::vector<RoundResult> results;
  oms::util::Table table({"sessions", "phase", "qps", "first-PSM p50 (ms)",
                          "first-PSM p99 (ms)", "open p50 (ms)",
                          "cache hit/miss"});
  for (const std::size_t n : session_counts) {
    // Fresh server per count: the cold round starts from an empty cache;
    // the hot round reuses the entry (and donated backend) it populated.
    oms::serve::SearchServerConfig srv_cfg;
    srv_cfg.max_sessions = 2 * n;
    oms::serve::SearchServer server(srv_cfg);
    for (const char* phase : {"cold", "hot"}) {
      const RoundResult r =
          run_round(server, phase, n, artifact, cfg, workload.queries);
      table.add_row(
          {std::to_string(r.sessions), r.phase,
           oms::util::Table::fmt(r.qps, 0),
           oms::util::Table::fmt(r.ttfp_p50_s * 1e3, 1),
           oms::util::Table::fmt(r.ttfp_p99_s * 1e3, 1),
           oms::util::Table::fmt(r.open_p50_s * 1e3, 2),
           std::to_string(r.cache_hits) + "/" +
               std::to_string(r.cache_misses)});
      results.push_back(r);
    }
  }

  std::printf("%s\n", table.str().c_str());
  write_json(out_path, results, dim, backend, n_refs, n_queries);
  std::printf("wrote %s\n", out_path.c_str());
  std::printf(
      "Expected shape: every round after the first open has misses = 0 —\n"
      "hot opens are cache hits that skip the mmap and reuse the donated\n"
      "backend (open p50 collapses accordingly). Aggregate qps grows with\n"
      "sessions until the shared pool saturates, while first-PSM p99\n"
      "stays bounded: the fair scheduler round-robins blocks, so one\n"
      "tenant's backlog cannot starve another's first result.\n");
  return 0;
}
