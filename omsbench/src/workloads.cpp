// The benchmark's four workloads. Each follows the same outline:
//
//   inputs   ms::generate_workload(seed), HEK293-like, never read from disk
//   set-up   repeated (3 offline, 5 for the cheaper serving set-ups);
//            setup_s is the median
//   oracle   solo Pipeline::run over the same queries and library
//            generation, outside the timed window
//   window   `seconds` of measured work (untraced); a traced run splits it
//            into an untraced half and a traced half, then replays the
//            workload's inputs through each layer (workloads.hpp)
#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "core/query_engine.hpp"
#include "hd/kernels.hpp"
#include "index/index_builder.hpp"
#include "ms/synthetic.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "util/thread_pool.hpp"

namespace omsbench {
namespace {

constexpr int kOfflineSetups = 3;  ///< Set-ups of the 12k / 8k-target builds.
constexpr int kShortSetups = 5;    ///< Set-ups of the serve and grow runs.
constexpr std::size_t kStreamQueries = 48;  ///< Queries per short stream.
constexpr std::size_t kClientThreads = 4;   ///< Open-loop client threads.

ms::Workload generate(std::size_t targets, std::size_t queries,
                      std::uint64_t seed) {
  ms::WorkloadConfig wc = ms::WorkloadConfig::hek293_like(1.0);
  wc.reference_count = targets;
  wc.query_count = queries;
  wc.seed = seed;
  return ms::generate_workload(wc);
}

std::vector<std::vector<ms::Spectrum>> split(
    const std::vector<ms::Spectrum>& all, std::size_t per) {
  std::vector<std::vector<ms::Spectrum>> out;
  for (std::size_t lo = 0; lo + per <= all.size(); lo += per) {
    out.emplace_back(all.begin() + lo, all.begin() + lo + per);
  }
  return out;
}

std::string traced_name(const std::string& backend) {
  return "traced-" + backend;
}

/// Window sums of the engine's own stage histograms (the existing
/// engine.stage.*_seconds registry instruments).
void add_engine_stages(const obs::Snapshot& delta, RunResult& r) {
  for (const char* stage : {"encode", "search", "rescore", "queue_wait",
                            "gate_wait", "admission_wait"}) {
    const obs::HistogramSnapshot* h = delta.histogram(
        std::string("engine.stage.") + stage + "_seconds");
    r.add(std::string("core.engine.") + stage + "_s", h ? h->sum : 0.0, "s");
  }
}

/// serve.* figures and engine stage sums over a traced window of `server`,
/// given its metrics and stats at the window's start (base: opens).
void add_serve_layer(serve::SearchServer& server, const obs::Snapshot& before,
                     const serve::SearchServerStats& stats_before,
                     const std::vector<double>& open_s,
                     const std::vector<double>& close_s, RunResult& r) {
  const obs::Snapshot delta = server.metrics_snapshot().since(before);
  const serve::SearchServerStats st = server.stats();
  const double opens =
      static_cast<double>(st.sessions_total - stats_before.sessions_total);
  add_engine_stages(delta, r);
  r.add("serve.open_s", median(open_s), "s");
  r.add("serve.close_s", median(close_s), "s");
  r.add("serve.cache.hit_ratio",
        static_cast<double>(st.cache.hits - stats_before.cache.hits) / opens,
        "ratio");
  r.add("serve.cache.backend_share_ratio",
        static_cast<double>(st.cache.backend_hits -
                            stats_before.cache.backend_hits) /
            opens,
        "ratio");
  r.add("serve.admission.blocked",
        static_cast<double>(delta.counter("serve.admission.blocked")),
        "count");
  r.detail("serve_base", "{\"opens\":" + num(opens) + "}");
}

/// Points the forwarding backends at `log` and clears their counters.
void start_search_probe(
    SpanLog* log, std::function<std::uint64_t(std::uint64_t)> parent_of) {
  SearchProbe& p = search_probe();
  const std::lock_guard lock(p.mutex);
  p.log = log;
  p.parent_of = std::move(parent_of);
  p.block_seconds.clear();
  p.blocks = 0;
  p.queries = 0;
}

/// Detaches the forwarding backends and reports their search blocks.
void stop_search_probe(RunResult& r) {
  SearchProbe& p = search_probe();
  const std::lock_guard lock(p.mutex);
  p.log = nullptr;
  p.parent_of = nullptr;
  r.add("core.search_batch_s", median(p.block_seconds), "s");
  r.add("core.queries_per_block",
        p.blocks == 0 ? 0.0
                      : static_cast<double>(p.queries) /
                            static_cast<double>(p.blocks),
        "count");
}

void write_trace_outputs(const Args& args, const SpanLog& log,
                         std::uint64_t window_root, double window_s,
                         RunResult& r) {
  const std::vector<SpanRecord> spans = log.spans();
  const std::string stem =
      args.workload + "-seed" + std::to_string(args.seed);
  std::filesystem::create_directories(args.out_dir);
  write_chrome_trace(args.out_dir / (stem + ".trace.json"), spans);
  const std::vector<SelfTimeRow> rows = self_times(spans, window_root);
  std::ostringstream js;
  js << "{\"window_s\":" << num(window_s) << ",\"rows\":[";
  std::fprintf(stderr, "self time over the traced window (%.3f s):\n",
               window_s);
  double total = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SelfTimeRow& row = rows[i];
    // The root's own time is what no layer span covered.
    const std::string name =
        row.name == "bench.window" ? "unattributed" : row.name;
    js << (i ? "," : "") << "{\"name\":\"" << name
       << "\",\"spans\":" << row.spans << ",\"self_s\":" << num(row.self_s)
       << ",\"share\":" << num(row.self_s / window_s) << "}";
    std::fprintf(stderr, "  %-32s %8.4f s  %5.1f%%  (%llu spans)\n",
                 name.c_str(), row.self_s, 100.0 * row.self_s / window_s,
                 static_cast<unsigned long long>(row.spans));
    total += row.self_s;
  }
  js << "],\"sum_s\":" << num(total) << "}";
  std::fprintf(stderr, "  %-32s %8.4f s\n", "sum", total);
  const std::string table = js.str();
  std::ofstream(args.out_dir / (stem + ".selftime.json")) << table << "\n";
  r.detail("self_time", table);
}

/// Per-stream timings of a window, from each stream's due time.
struct StreamLog {
  std::vector<double> latency;    ///< due → result returned
  std::vector<double> first_psm;  ///< due → first accepted PSM delivered
  std::vector<double> lag;        ///< due → actually started
  std::size_t queries = 0;
  std::size_t streams = 0;

  void append(const StreamLog& o) {
    latency.insert(latency.end(), o.latency.begin(), o.latency.end());
    first_psm.insert(first_psm.end(), o.first_psm.begin(), o.first_psm.end());
    lag.insert(lag.end(), o.lag.begin(), o.lag.end());
    queries += o.queries;
    streams += o.streams;
  }
};

void add_stream_metrics(const StreamLog& s, double window_s,
                        double streams_per_s, RunResult& r) {
  const Summary lat = summarize(s.latency);
  const Summary fp = summarize(s.first_psm);
  r.add("qps", static_cast<double>(s.queries) / window_s, "1/s");
  r.add("stream_p50_s", lat.p50, "s");
  r.add("stream_tail_s", lat.tail, "s");
  r.add("first_psm_p50_s", fp.p50, "s");
  r.add("first_psm_tail_s", fp.tail, "s");
  r.add("sustained_streams_per_s", streams_per_s, "1/s");
  r.detail("stream_latency", summary_json(lat));
  r.detail("first_psm_latency", summary_json(fp));
  r.detail("window",
           "{\"seconds\":" + num(window_s) +
               ",\"streams\":" + std::to_string(s.streams) +
               ",\"queries\":" + std::to_string(s.queries) + "}");
}

void add_common_end(const std::vector<double>& setups, RunResult& r) {
  r.add("setup_s", median(setups), "s");
  r.detail("setup_samples_s", [&] {
    std::string s = "[";
    for (std::size_t i = 0; i < setups.size(); ++i) {
      s += (i ? "," : "") + num(setups[i]);
    }
    return s + "]";
  }());
}

/// success_ratio over every operation of every phase.
void add_success(RunResult& r) {
  std::uint64_t attempted = 0, ok = 0;
  std::string js = "{";
  bool first = true;
  for (const auto& [name, p] : r.phases) {
    attempted += p.attempted;
    ok += p.succeeded;
    js += (first ? "\"" : ",\"") + name + "\":{\"attempted\":" +
          std::to_string(p.attempted) + ",\"succeeded\":" +
          std::to_string(p.succeeded) + ",\"failed\":" +
          std::to_string(p.failed) + ",\"refused\":" +
          std::to_string(p.refused) + "}";
    first = false;
  }
  r.add("success_ratio",
        attempted == 0 ? 0.0
                       : static_cast<double>(ok) /
                             static_cast<double>(attempted),
        "ratio");
  r.detail("accounting", js + "}");
}

// --- batch_open / imc_search ---------------------------------------------

struct OfflineShape {
  const char* backend;
  std::size_t targets;
  std::size_t pass_queries;
};

/// One offline pass: a fresh Pipeline over the shared mapped index, one
/// closed-loop run over the whole query stream. Untraced it is exactly
/// Pipeline::run; traced it is the same engine run (Pipeline::run's
/// QueryEngine configuration) with the registry attached and a span
/// around each public call.
core::PipelineResult offline_pass(
    const core::PipelineConfig& cfg,
    const std::shared_ptr<const index::LibraryIndex>& idx,
    const std::vector<ms::Spectrum>& queries, SpanLog* log,
    std::uint64_t root, obs::MetricsRegistry* registry,
    std::atomic<std::uint64_t>& current_run) {
  if (log == nullptr) {
    core::Pipeline p(cfg);
    p.set_library(idx);
    return p.run(queries);
  }
  Span pass(log, "core.pipeline.pass", root);
  std::unique_ptr<core::Pipeline> p;
  {
    Span s(log, "core.pipeline.set_library", pass.id());
    p = std::make_unique<core::Pipeline>(cfg);
    p->set_library(idx);
  }
  Span run(log, "core.pipeline.run", pass.id());
  current_run = run.id();
  core::QueryEngineConfig ecfg;
  ecfg.stage_threads = std::clamp<std::size_t>(
      util::ThreadPool::global().thread_count(), 1, 8);
  ecfg.queue_blocks = 2 * ecfg.stage_threads + 2;
  ecfg.metrics = registry;
  core::QueryEngine engine(*p, ecfg);
  engine.submit_batch(queries);
  return engine.drain();
}

RunResult run_offline(const Args& args, const OfflineShape& shape,
                      const std::string& shape_json) {
  RunResult r;
  r.detail("shape", shape_json);
  const ms::Workload wl =
      generate(shape.targets, shape.pass_queries, args.seed);
  const core::PipelineConfig cfg = paper_config(shape.backend);

  std::vector<double> setups, builds;
  index::BuildStats build{};
  std::shared_ptr<const index::LibraryIndex> idx;
  std::string path;
  core::PipelineResult oracle;
  Phase& writes = r.phases["library_writes"];
  const auto setup = [&](int k) {
    idx.reset();
    if (!path.empty()) std::filesystem::remove(path);
    path = (args.tmp_dir / ("library" + std::to_string(k) + ".omsx")).string();
    const auto t0 = Clock::now();
    ++writes.attempted;
    build = index::IndexBuilder(cfg).build(wl.references, path);
    ++writes.succeeded;
    builds.push_back(seconds_between(t0, Clock::now()));
    idx = std::make_shared<const index::LibraryIndex>(
        index::LibraryIndex::open(path));
    core::Pipeline p(cfg);
    p.set_library(idx);
    setups.push_back(seconds_between(t0, Clock::now()));
    // The oracle pass doubles as the warm-up: every timed pass runs in a
    // process whose thread pool, allocator and page cache are warm, while
    // still paying its own Pipeline construction and lazy ID-bank fill.
    // Later set-ups rebuild the same artifact, so their passes are checked
    // against this oracle too.
    if (k == 0) oracle = p.run(wl.queries);
  };

  Phase& q = r.phases["queries"];
  std::atomic<std::uint64_t> current_run{0};
  const auto window = [&](double seconds, SpanLog* log, std::uint64_t root,
                          obs::MetricsRegistry* registry,
                          const core::PipelineConfig& pcfg) {
    StreamLog s;
    double measured = 0.0;
    auto prev_end = Clock::now();
    while (measured < seconds) {
      const auto due = prev_end;
      const auto start = Clock::now();
      q.attempted += wl.queries.size();
      core::PipelineResult res;
      try {
        res = offline_pass(pcfg, idx, wl.queries, log, root, registry,
                           current_run);
        q.succeeded += wl.queries.size();
      } catch (const std::exception& e) {
        q.failed += wl.queries.size();
        r.fail(std::string("pass failed: ") + e.what());
      }
      const auto end = Clock::now();
      const double lat = seconds_between(due, end);
      s.latency.push_back(lat);
      s.first_psm.push_back(lat);  // AtDrain: every PSM arrives at run()'s return
      s.lag.push_back(seconds_between(due, start));
      s.queries += wl.queries.size();
      ++s.streams;
      measured += lat;
      {
        Span check(log, "bench.check", root);
        const std::string diff = compare_psms(res.accepted, oracle.accepted);
        if (!diff.empty()) r.fail("pass vs solo Pipeline::run: " + diff);
      }
      prev_end = Clock::now();
    }
    return std::make_pair(s, measured);
  };

  if (!args.trace) {
    // Set-ups and thirds of the window alternate, so both sample the whole
    // run rather than one stretch of the machine's varying speed.
    StreamLog s;
    double measured = 0.0;
    for (int k = 0; k < kOfflineSetups; ++k) {
      setup(k);
      const auto [part, part_s] =
          window(args.seconds / kOfflineSetups, nullptr, 0, nullptr, cfg);
      s.append(part);
      measured += part_s;
    }
    add_common_end(setups, r);
    add_stream_metrics(s, measured,
                       static_cast<double>(s.streams) / measured, r);
    const Summary b = summarize(builds);
    r.add("append_p50_s", b.p50, "s");
    r.add("append_tail_s", b.tail, "s");
    r.detail("append_latency", summary_json(b));
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    add_success(r);
    return r;
  }

  // Traced: an untraced half for the overhead ratio, then a traced half.
  for (int k = 0; k < kOfflineSetups; ++k) setup(k);
  const auto [plain, plain_s] =
      window(args.seconds / 2, nullptr, 0, nullptr, cfg);
  SpanLog log;
  obs::MetricsRegistry registry;
  core::PipelineConfig tcfg = cfg;
  tcfg.backend_name = traced_name(shape.backend);
  start_search_probe(&log, [&](std::uint64_t) { return current_run.load(); });
  std::uint64_t root_id = 0;
  double window_s = 0.0;
  StreamLog traced;
  double traced_s = 0.0;
  {
    Span root(&log, "bench.window");
    root_id = root.id();
    const auto t0 = Clock::now();
    std::tie(traced, traced_s) =
        window(args.seconds / 2, &log, root.id(), &registry, tcfg);
    window_s = seconds_between(t0, Clock::now());
  }
  stop_search_probe(r);
  add_engine_stages(registry.snapshot(), r);
  const double qps_plain = static_cast<double>(plain.queries) / plain_s;
  const double qps_traced = static_cast<double>(traced.queries) / traced_s;
  r.add("bench.trace_overhead_ratio", qps_traced / qps_plain, "ratio");
  r.add("bench.generator_lag_tail_s", summarize(traced.lag).tail, "s");
  r.add("index.build_s", median(builds), "s");
  r.add("index.append.encode_s", build.encode_seconds, "s");
  r.add("index.append.write_s", build.write_seconds, "s");
  r.add("index.extents",
        static_cast<double>(
            hd::RefView::from_span(idx->hypervectors()).extent_count()),
        "count");

  LayerInputs in;
  in.cfg = cfg;
  in.stream = wl.queries;
  in.write_batch = wl.references;
  in.index = idx;
  in.artifact_path = path;
  in.psms = oracle.psms;
  {
    Span replay(&log, "bench.replay");
    replay_layers(in, args, &log, replay.id(), r);
  }
  write_trace_outputs(args, log, root_id, window_s, r);
  return r;
}

std::string offline_shape_json(const OfflineShape& s) {
  return std::string("{\"loop\":\"closed\",\"clients\":1,\"backend\":\"") +
         s.backend + "\",\"targets\":" + std::to_string(s.targets) +
         ",\"entries_with_decoys\":" + std::to_string(2 * s.targets) +
         ",\"dim\":8192,\"id_bits\":3,\"window_da\":500" +
         ",\"stream_queries\":" + std::to_string(s.pass_queries) +
         ",\"block_size\":64,\"library\":\"mapped LibraryIndex\"}";
}

// --- serve_short_streams -------------------------------------------------

constexpr std::size_t kServeTargets = 4000;
constexpr std::size_t kServeStreams = 64;  ///< Distinct streams, cycled.
/// Arrival-rate ladder, streams per second. The top rung is an overload
/// probe (above today's capacity), so the sustained rate can rise as well
/// as fall; the end-to-end latencies pool the kLatencyRungs lowest rungs,
/// where per-session cost rather than queueing sets the time.
constexpr double kServeRates[] = {12.0, 24.0, 48.0, 192.0};
constexpr std::size_t kLatencyRungs = 2;
constexpr std::size_t kLadderCycles = 3;
constexpr double kServeLimitS = 0.5;  ///< Tail latency limit per rung.
/// A rung's backlog grows when the median start lag of its last quarter of
/// arrivals exceeds that of its first quarter by more than this.
constexpr double kBacklogGrowthS = 0.1;

struct SessionRun {
  std::size_t stream = 0;
  double due = 0.0, start = 0.0, end = 0.0, first_psm = -1.0;
  double open_s = 0.0, close_s = 0.0;  ///< SearchServer::open, close()
  bool opened = false, ok = false;
  std::size_t refused = 0;  ///< Queries submit_batch did not admit.
  std::vector<core::Psm> accepted;  ///< close().accepted
  std::vector<core::Psm> streamed;  ///< on_accept deliveries
  std::string error;
};

/// One open/submit/close stream through the server; times in seconds
/// since `epoch`.
void run_session(serve::SearchServer& server, const std::string& path,
                 const core::PipelineConfig& cfg,
                 const std::vector<ms::Spectrum>& queries,
                 Clock::time_point epoch, SessionRun& out, SpanLog* log,
                 std::uint64_t root, std::atomic<std::uint64_t>* span_slot) {
  Span sess(log, "serve.session", root, out.stream);
  if (span_slot != nullptr) *span_slot = sess.id();
  out.start = seconds_between(epoch, Clock::now());
  std::mutex psm_mu;
  serve::SessionConfig sc;
  sc.pipeline = cfg;
  sc.on_accept = [&](const core::Psm& p) {
    const double t = seconds_between(epoch, Clock::now());
    const std::lock_guard lock(psm_mu);
    if (out.first_psm < 0) out.first_psm = t;
    out.streamed.push_back(p);
  };
  try {
    std::shared_ptr<serve::Session> session;
    const auto t0 = Clock::now();
    {
      Span s(log, "serve.open", sess.id(), out.stream);
      session = server.open(path, sc);
    }
    out.open_s = seconds_between(t0, Clock::now());
    out.opened = true;
    {
      Span s(log, "serve.submit", sess.id(), out.stream);
      out.refused = queries.size() - session->submit_batch(queries);
    }
    const auto t2 = Clock::now();
    core::PipelineResult res;
    {
      Span s(log, "serve.close", sess.id(), out.stream);
      res = session->close();
    }
    out.close_s = seconds_between(t2, Clock::now());
    out.accepted = std::move(res.accepted);
    out.ok = out.refused == 0;
    if (!out.ok) out.error = "submission refused";
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.end = seconds_between(epoch, Clock::now());
}

/// Books one session into the session_opens and queries phases. A stream
/// that could not open fails all its queries.
void account(const SessionRun& s, RunResult& r) {
  Phase& opens = r.phases["session_opens"];
  Phase& q = r.phases["queries"];
  ++opens.attempted;
  q.attempted += kStreamQueries;
  if (s.opened) ++opens.succeeded; else ++opens.failed;
  q.refused += s.refused;
  if (s.ok) {
    q.succeeded += kStreamQueries;
  } else {
    q.failed += kStreamQueries - s.refused;
    std::fprintf(stderr, "omsbench: session failed: %s\n", s.error.c_str());
  }
}

struct RungResult {
  double rate = 0.0;
  std::vector<SessionRun> runs;
  double wall_s = 0.0;
  /// Largest last-quarter minus first-quarter start lag over its slices.
  double lag_growth_s = -1.0;
  Summary latency;
  bool pass = false;
};

}  // namespace

RunResult run_serve_short_streams(const Args& args) {
  RunResult r;
  {
    std::ostringstream shape;
    shape << "{\"loop\":\"open\",\"arrivals\":\"poisson\",\"clients\":"
          << kClientThreads << ",\"backend\":\"ideal-hd\",\"targets\":"
          << kServeTargets << ",\"dim\":8192,\"id_bits\":3,\"window_da\":500"
          << ",\"stream_queries\":" << kStreamQueries
          << ",\"distinct_streams\":" << kServeStreams
          << ",\"emit\":\"rolling\",\"block_size\":64,\"rate_ladder\":[";
    for (std::size_t i = 0; i < std::size(kServeRates); ++i) {
      shape << (i ? "," : "") << kServeRates[i];
    }
    shape << "],\"latency_limit_s\":" << kServeLimitS
          << ",\"latency_rungs\":" << kLatencyRungs
          << ",\"backlog_growth_limit_s\":" << kBacklogGrowthS << "}";
    r.detail("shape", shape.str());
  }
  const ms::Workload wl =
      generate(kServeTargets, kServeStreams * kStreamQueries, args.seed);
  const auto streams = split(wl.queries, kStreamQueries);
  const core::PipelineConfig cfg = paper_config("ideal-hd");

  std::vector<double> setups, builds;
  index::BuildStats build{};
  std::string path;
  std::unique_ptr<serve::SearchServer> server;
  Phase& writes = r.phases["library_writes"];
  for (int k = 0; k < kShortSetups; ++k) {
    server.reset();
    if (!path.empty()) std::filesystem::remove(path);
    path = (args.tmp_dir / ("library" + std::to_string(k) + ".omsx")).string();
    const auto t0 = Clock::now();
    ++writes.attempted;
    build = index::IndexBuilder(cfg).build(wl.references, path);
    ++writes.succeeded;
    builds.push_back(seconds_between(t0, Clock::now()));
    serve::SearchServerConfig scfg;
    scfg.maintainer.interval = std::chrono::milliseconds(0);
    server = std::make_unique<serve::SearchServer>(scfg);
    // Warm-up: the first open maps the artifact and donates the backend,
    // so the window starts on a hot cache.
    serve::SessionConfig sc;
    sc.pipeline = cfg;
    auto s = server->open(path, sc);
    (void)s->submit_batch(streams[0]);
    (void)s->close();
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  const auto idx = std::make_shared<const index::LibraryIndex>(
      index::LibraryIndex::open(path));
  // Oracles: solo Pipeline::run per distinct stream. Computed after the
  // window (and after peak_rss_mb is read), so the oracle pipeline's ID
  // bank never counts as the workload's memory.
  std::vector<core::PipelineResult> oracle;
  const auto check = [&](const std::vector<RungResult>& rungs) {
    if (oracle.empty()) {
      core::Pipeline p(cfg);
      p.set_library(idx);
      for (const auto& s : streams) oracle.push_back(p.run(s));
    }
    for (const RungResult& rr : rungs) {
      for (const SessionRun& s : rr.runs) {
        if (!s.ok) continue;
        const auto& want = oracle[s.stream].accepted;
        std::string diff = compare_psms(s.accepted, want);
        if (diff.empty()) diff = compare_psm_sets(s.streamed, want);
        if (!diff.empty()) r.fail("session vs solo Pipeline::run: " + diff);
      }
    }
  };

  std::vector<std::atomic<std::uint64_t>> session_span(kServeStreams);

  // One slice of a rung: a Poisson schedule conditioned on its count
  // (rate × seconds arrivals at sorted uniform times, so every seed offers
  // the same load) served by the client threads; the slice ends when its
  // last stream closes.
  std::size_t sessions_started = 0;
  const auto slice = [&](RungResult& rr, std::uint64_t slice_index,
                         double seconds, SpanLog* log, std::uint64_t root,
                         const core::PipelineConfig& pcfg) {
    std::mt19937_64 rng(args.seed * 1000003ULL + slice_index);
    std::uniform_real_distribution<double> when(0.0, seconds);
    std::vector<double> dues(
        static_cast<std::size_t>(std::llround(rr.rate * seconds)));
    for (double& t : dues) t = when(rng);
    std::sort(dues.begin(), dues.end());
    std::vector<SessionRun> runs(dues.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      runs[i].due = dues[i];
      runs[i].stream = sessions_started++ % kServeStreams;
    }
    const auto epoch = Clock::now();
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClientThreads; ++c) {
      clients.emplace_back([&] {
        for (std::size_t i = next++; i < runs.size(); i = next++) {
          SessionRun& s = runs[i];
          std::this_thread::sleep_until(
              epoch + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(s.due)));
          run_session(*server, path, pcfg, streams[s.stream], epoch, s, log,
                      root, log ? &session_span[s.stream] : nullptr);
        }
      });
    }
    for (auto& t : clients) t.join();
    rr.wall_s += seconds_between(epoch, Clock::now());
    std::vector<double> first_lag, last_lag;
    const std::size_t quarter = runs.size() / 4;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (i < quarter) first_lag.push_back(runs[i].start - runs[i].due);
      if (i >= runs.size() - quarter) last_lag.push_back(runs[i].start - runs[i].due);
    }
    rr.lag_growth_s =
        std::max(rr.lag_growth_s, median(last_lag) - median(first_lag));
    for (SessionRun& run : runs) rr.runs.push_back(std::move(run));
  };

  // The sustainable rates run in kLadderCycles interleaved slices, so the
  // pooled latencies sample the whole window rather than one stretch of
  // it; the overload probe runs last, in one slice (its backlog then
  // takes a few seconds to drain).
  const auto run_ladder = [&](double seconds, SpanLog* log,
                              std::uint64_t root,
                              const core::PipelineConfig& pcfg) {
    constexpr std::size_t kRates = std::size(kServeRates);
    std::vector<RungResult> rungs(kRates);
    for (std::size_t i = 0; i < kRates; ++i) rungs[i].rate = kServeRates[i];
    const double unit =
        seconds / static_cast<double>((kRates - 1) * kLadderCycles + 1);
    std::uint64_t slice_index = 0;
    for (std::size_t c = 0; c < kLadderCycles; ++c) {
      for (std::size_t i = 0; i + 1 < kRates; ++i) {
        slice(rungs[i], slice_index++, unit, log, root, pcfg);
      }
    }
    slice(rungs.back(), slice_index, unit, log, root, pcfg);
    for (RungResult& rr : rungs) {
      std::vector<double> lat;
      bool all_ok = true;
      for (const SessionRun& run : rr.runs) {
        account(run, r);
        if (run.ok) lat.push_back(run.end - run.due);
        all_ok = all_ok && run.ok;
      }
      rr.latency = summarize(lat);
      rr.pass = all_ok && rr.latency.samples > 0 &&
                rr.latency.tail <= kServeLimitS &&
                rr.lag_growth_s <= kBacklogGrowthS;
    }
    return rungs;
  };
  // Throughput over the whole ladder; generator lag over the rates it
  // can keep up with (below the overload probe); latencies over the
  // kLatencyRungs lowest rungs.
  const auto pooled = [](const std::vector<RungResult>& rungs) {
    StreamLog s;
    double wall = 0.0;
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      wall += rungs[i].wall_s;
      for (const SessionRun& run : rungs[i].runs) {
        if (i + 1 < rungs.size()) s.lag.push_back(run.start - run.due);
        if (!run.ok) continue;
        ++s.streams;
        s.queries += kStreamQueries;
        if (i >= kLatencyRungs) continue;
        s.latency.push_back(run.end - run.due);
        if (run.first_psm >= 0) s.first_psm.push_back(run.first_psm - run.due);
      }
    }
    return std::make_pair(s, wall);
  };

  // Steady state before timing: one second of untimed, unchecked streams
  // at the middle rate, so no timed stream pays first-use costs.
  {
    RungResult warm;
    warm.rate = kServeRates[1];
    slice(warm, ~std::uint64_t{0}, 1.0, nullptr, 0, cfg);
  }

  if (!args.trace) {
    const auto rungs = run_ladder(args.seconds, nullptr, 0, cfg);
    const auto [s, wall] = pooled(rungs);
    // Highest rate whose rung, and every rung below it, met the limit.
    double sustained = 0.0;
    bool all_pass = true;
    std::string rows = "[";
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      const RungResult& rr = rungs[i];
      all_pass = all_pass && rr.pass;
      if (all_pass) sustained = rr.rate;
      rows += (i ? "," : "") + std::string("{\"rate\":") + num(rr.rate) +
              ",\"streams\":" + std::to_string(rr.runs.size()) +
              ",\"latency\":" + summary_json(rr.latency) +
              ",\"lag_growth_s\":" + num(rr.lag_growth_s) +
              ",\"pass\":" + (rr.pass ? "true" : "false") + "}";
    }
    r.detail("rungs", rows + "]");
    add_common_end(setups, r);
    add_stream_metrics(s, wall, sustained, r);
    const Summary b = summarize(builds);
    r.add("append_p50_s", b.p50, "s");
    r.add("append_tail_s", b.tail, "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    check(rungs);
    add_success(r);
    return r;
  }

  const auto plain = run_ladder(args.seconds / 2, nullptr, 0, cfg);
  const auto [plain_log, plain_wall] = pooled(plain);
  SpanLog log;
  core::PipelineConfig tcfg = cfg;
  tcfg.backend_name = traced_name("ideal-hd");
  // Query spectrum ids are the stream's ids; map them to the session span
  // that is serving that stream right now.
  std::map<std::uint32_t, std::size_t> stream_of;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    for (const ms::Spectrum& sp : streams[i]) stream_of[sp.id] = i;
  }
  start_search_probe(&log, [&](std::uint64_t id) -> std::uint64_t {
    const auto it = stream_of.find(static_cast<std::uint32_t>(id));
    return it == stream_of.end() ? 0 : session_span[it->second].load();
  });
  const obs::Snapshot traced_before = server->metrics_snapshot();
  const serve::SearchServerStats traced_stats_before = server->stats();
  std::uint64_t root_id = 0;
  double window_s = 0.0;
  std::vector<RungResult> traced;
  {
    Span root(&log, "bench.window");
    root_id = root.id();
    const auto t0 = Clock::now();
    traced = run_ladder(args.seconds / 2, &log, root.id(), tcfg);
    window_s = seconds_between(t0, Clock::now());
  }
  stop_search_probe(r);
  const auto [traced_log, traced_wall] = pooled(traced);
  check(plain);
  check(traced);
  std::vector<double> open_s, close_s;
  for (const RungResult& rr : traced) {
    for (const SessionRun& run : rr.runs) {
      if (!run.ok) continue;
      open_s.push_back(run.open_s);
      close_s.push_back(run.close_s);
    }
  }
  add_serve_layer(*server, traced_before, traced_stats_before, open_s, close_s,
                  r);
  r.add("bench.trace_overhead_ratio",
        (static_cast<double>(traced_log.queries) / traced_wall) /
            (static_cast<double>(plain_log.queries) / plain_wall),
        "ratio");
  r.add("bench.generator_lag_tail_s", summarize(traced_log.lag).tail, "s");
  r.add("index.build_s", median(builds), "s");
  r.add("index.append.encode_s", build.encode_seconds, "s");
  r.add("index.append.write_s", build.write_seconds, "s");
  r.add("index.extents",
        static_cast<double>(
            hd::RefView::from_span(idx->hypervectors()).extent_count()),
        "count");

  LayerInputs in;
  in.cfg = cfg;
  in.stream = streams[0];
  in.write_batch = wl.references;
  in.index = idx;
  in.artifact_path = path;
  in.psms = oracle[0].psms;
  in.serve_measured = true;
  {
    Span replay(&log, "bench.replay");
    replay_layers(in, args, &log, replay.id(), r);
  }
  write_trace_outputs(args, log, root_id, window_s, r);
  return r;
}

// --- grow_and_search -----------------------------------------------------

namespace {

constexpr std::size_t kGrowBatch = 512;      ///< Targets per append.
constexpr std::size_t kGrowGenerations = 8;  ///< Appends per fresh manifest.

}  // namespace

RunResult run_grow_and_search(const Args& args) {
  RunResult r;
  r.detail("shape",
           "{\"loop\":\"closed\",\"clients\":1,\"backend\":\"ideal-hd\","
           "\"append_targets\":" + std::to_string(kGrowBatch) +
               ",\"generations_per_manifest\":" +
               std::to_string(kGrowGenerations) +
               ",\"dim\":8192,\"id_bits\":3,\"window_da\":500"
               ",\"stream_queries\":" + std::to_string(kStreamQueries) +
               ",\"emit\":\"rolling\",\"block_size\":64,"
               "\"maintainer\":\"interval 0, default thresholds, run_once "
               "after every stream\"}");
  const ms::Workload wl = generate(kGrowBatch * kGrowGenerations,
                                   kStreamQueries * kGrowGenerations,
                                   args.seed);
  const auto batches = split(wl.references, kGrowBatch);
  const auto streams = split(wl.queries, kStreamQueries);
  const core::PipelineConfig cfg = paper_config("ideal-hd");
  const index::IndexBuilder builder(cfg);

  serve::SearchServerConfig scfg;
  scfg.maintainer.interval = std::chrono::milliseconds(0);
  std::vector<double> setups, births;  ///< births: first-append time
  std::unique_ptr<serve::SearchServer> server;
  Phase& appends = r.phases["appends"];
  for (int k = 0; k < kShortSetups; ++k) {
    server.reset();
    const auto dir = args.tmp_dir / ("setup" + std::to_string(k));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string man = (dir / "lib.omsxman").string();
    const auto t0 = Clock::now();
    ++appends.attempted;
    (void)builder.append(batches[0], man);
    ++appends.succeeded;
    births.push_back(seconds_between(t0, Clock::now()));
    server = std::make_unique<serve::SearchServer>(scfg);
    serve::SessionConfig sc;
    sc.pipeline = cfg;
    auto s = server->open(man, sc);
    (void)s->submit_batch(streams[0]);
    (void)s->close();
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  std::vector<double> append_s, open_s, close_s, compact_s, extents;
  std::vector<double> append_encode, append_write;
  double compact_bytes = 0.0;
  std::atomic<std::uint64_t> session_span{0};
  std::size_t manifests = 0;
  std::shared_ptr<const index::SegmentedLibrary> last_lib;
  std::string last_man;

  const auto window = [&](double seconds, SpanLog* log, std::uint64_t root,
                          const core::PipelineConfig& pcfg) {
    StreamLog s;
    double measured = 0.0;
    std::size_t g = kGrowGenerations;
    std::string man;
    // Whole manifests only, so every run measures the same mix of
    // generations (compactions trip at fixed points of each manifest).
    while (measured < seconds || g != kGrowGenerations) {
      if (g == kGrowGenerations) {
        const auto dir = args.tmp_dir / ("grow" + std::to_string(manifests++));
        std::filesystem::create_directories(dir);
        man = (dir / "lib.omsxman").string();
        g = 0;
      }
      // Append, through manifest publication.
      const auto a0 = Clock::now();
      ++appends.attempted;
      try {
        Span span(log, "index.append", root);
        const index::BuildStats bs = builder.append(batches[g], man);
        append_encode.push_back(bs.encode_seconds);
        append_write.push_back(bs.write_seconds);
        ++appends.succeeded;
      } catch (const std::exception& e) {
        ++appends.failed;
        r.fail(std::string("append failed: ") + e.what());
      }
      const auto a1 = Clock::now();
      append_s.push_back(seconds_between(a0, a1));

      // A short stream on the new generation, due when the append returned.
      SessionRun run;
      run.stream = g;
      run_session(*server, man, pcfg, streams[g], a1, run, log, root,
                  &session_span);
      const auto s1 = Clock::now();
      account(run, r);
      if (run.ok) {
        open_s.push_back(run.open_s);
        close_s.push_back(run.close_s);
        s.latency.push_back(run.end);
        if (run.first_psm >= 0) s.first_psm.push_back(run.first_psm);
        s.lag.push_back(run.start);
        s.queries += kStreamQueries;
        ++s.streams;
      }

      // Output check on the same generation, outside the measured time.
      {
        Span check(log, "bench.check", root);
        auto lib = std::make_shared<const index::SegmentedLibrary>(
            index::SegmentedLibrary::open(man));
        extents.push_back(static_cast<double>(lib->ref_view().extent_count()));
        core::Pipeline p(cfg);
        p.set_library(lib);
        const core::PipelineResult want = p.run(streams[g]);
        std::string diff = compare_psms(run.accepted, want.accepted);
        if (diff.empty()) diff = compare_psm_sets(run.streamed, want.accepted);
        if (!diff.empty()) r.fail("stream vs solo Pipeline::run: " + diff);
        last_lib = lib;
        last_man = man;
      }

      // Maintenance: compacts when a threshold trips.
      const auto m0 = Clock::now();
      std::size_t compacted = 0;
      {
        Span span(log, "serve.maintainer.run_once", root);
        compacted = server->maintainer().run_once();
      }
      const auto m1 = Clock::now();
      if (compacted > 0) {
        compact_s.push_back(seconds_between(m0, m1));
        const index::Manifest m = index::Manifest::load(man);
        double bytes = 0.0;
        for (const auto& seg : m.segments) bytes += static_cast<double>(seg.file_size);
        compact_bytes += bytes;
      }
      measured += seconds_between(a0, s1) + seconds_between(m0, m1);
      ++g;
    }
    return std::make_pair(s, measured);
  };

  if (!args.trace) {
    const auto [s, measured] = window(args.seconds, nullptr, 0, cfg);
    add_common_end(setups, r);
    add_stream_metrics(s, measured,
                       static_cast<double>(s.streams) / measured, r);
    const Summary a = summarize(append_s);
    r.add("append_p50_s", a.p50, "s");
    r.add("append_tail_s", a.tail, "s");
    r.detail("append_latency", summary_json(a));
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    add_success(r);
    return r;
  }

  const auto [plain, plain_s] = window(args.seconds / 2, nullptr, 0, cfg);
  SpanLog log;
  core::PipelineConfig tcfg = cfg;
  tcfg.backend_name = traced_name("ideal-hd");
  start_search_probe(&log, [&](std::uint64_t) { return session_span.load(); });
  append_s.clear();
  append_encode.clear();
  append_write.clear();
  open_s.clear();
  close_s.clear();
  compact_s.clear();
  extents.clear();
  compact_bytes = 0.0;
  const obs::Snapshot before = server->metrics_snapshot();
  const serve::SearchServerStats stats_before = server->stats();
  std::uint64_t root_id = 0;
  double window_s = 0.0;
  StreamLog traced;
  double traced_s = 0.0;
  {
    Span root(&log, "bench.window");
    root_id = root.id();
    const auto t0 = Clock::now();
    std::tie(traced, traced_s) = window(args.seconds / 2, &log, root.id(), tcfg);
    window_s = seconds_between(t0, Clock::now());
  }
  stop_search_probe(r);
  add_serve_layer(*server, before, stats_before, open_s, close_s, r);
  r.detail("compactions", std::to_string(compact_s.size()));
  r.add("bench.trace_overhead_ratio",
        (static_cast<double>(traced.queries) / traced_s) /
            (static_cast<double>(plain.queries) / plain_s),
        "ratio");
  r.add("bench.generator_lag_tail_s", summarize(traced.lag).tail, "s");
  r.add("index.build_s", median(births), "s");
  r.add("index.append.encode_s", median(append_encode), "s");
  r.add("index.append.write_s", median(append_write), "s");
  r.add("index.extents", median(extents), "count");
  r.add("index.compact_s", median(compact_s), "s");
  r.add("index.compact.bytes",
        compact_s.empty() ? 0.0 : compact_bytes / compact_s.size(), "bytes");

  LayerInputs in;
  in.cfg = cfg;
  in.stream = streams[0];
  in.write_batch = batches[0];
  in.segmented = last_lib;
  in.artifact_path = last_man;
  {
    core::Pipeline p(cfg);
    p.set_library(last_lib);
    in.psms = p.run(streams[0]).psms;
  }
  in.id_bank_on_write = true;
  in.serve_measured = true;
  in.compact_measured = !compact_s.empty();
  {
    Span replay(&log, "bench.replay");
    replay_layers(in, args, &log, replay.id(), r);
  }
  write_trace_outputs(args, log, root_id, window_s, r);
  return r;
}

RunResult run_batch_open(const Args& args) {
  const OfflineShape shape{"ideal-hd", 12000, 512};
  return run_offline(args, shape, offline_shape_json(shape));
}

RunResult run_imc_search(const Args& args) {
  const OfflineShape shape{"rram-statistical", 8000, 128};
  return run_offline(args, shape, offline_shape_json(shape));
}

}  // namespace omsbench
