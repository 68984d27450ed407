// Per-layer replay probes. Layers that sit inside the query engine are
// timed from outside by replaying the workload's own inputs through the
// layer's public function in engine-sized blocks; each probe repeats its
// call until a minimum busy time has accumulated and reports the mean.
#include <algorithm>
#include <filesystem>
#include <memory>

#include "accel/imc_encoder.hpp"
#include "accel/imc_search.hpp"
#include "core/streaming_fdr.hpp"
#include "hd/encoder.hpp"
#include "hd/id_bank.hpp"
#include "hd/search.hpp"
#include "index/index_builder.hpp"
#include "ms/preprocess.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace omsbench {
namespace {

constexpr std::size_t kEngineBlock = 64;  ///< QueryEngine's default B.
constexpr double kMinBusy = 0.05;         ///< Seconds per probe, at least.

/// Calls `fn` until `min_s` seconds of it have run; returns the mean
/// seconds per call.
template <typename Fn>
double mean_seconds(Fn&& fn, double min_s = kMinBusy) {
  std::size_t calls = 0;
  double busy = 0.0;
  while (busy < min_s || calls == 0) {
    const auto t0 = Clock::now();
    fn();
    busy += seconds_between(t0, Clock::now());
    ++calls;
  }
  return busy / static_cast<double>(calls);
}

std::vector<ms::BinnedSpectrum> preprocess_kept(
    const std::vector<ms::Spectrum>& spectra, const core::PipelineConfig& cfg) {
  std::vector<ms::BinnedSpectrum> out;
  for (const ms::Spectrum& s : spectra) {
    ms::BinnedSpectrum b;
    if (ms::preprocess(s, cfg.preprocess, b)) out.push_back(std::move(b));
  }
  return out;
}

std::vector<std::uint32_t> union_bins(
    const std::vector<ms::BinnedSpectrum>& spectra) {
  std::vector<std::uint32_t> bins;
  for (const auto& s : spectra) bins.insert(bins.end(), s.bins.begin(), s.bins.end());
  std::sort(bins.begin(), bins.end());
  bins.erase(std::unique(bins.begin(), bins.end()), bins.end());
  return bins;
}

/// Precursor windows of the stream against the library, as the engine
/// computes them for an open search.
std::vector<std::pair<std::size_t, std::size_t>> windows(
    const LayerInputs& in, const std::vector<ms::BinnedSpectrum>& q) {
  const ms::SpectralLibrary& lib =
      in.index ? in.index->library() : in.segmented->library();
  std::vector<std::pair<std::size_t, std::size_t>> w;
  for (const auto& s : q) {
    w.push_back(lib.mass_window(s.precursor_mass, in.cfg.oms_window_da));
  }
  return w;
}

void probe_serve(const LayerInputs& in, SpanLog* log, std::uint64_t root,
                 RunResult& out) {
  Span span(log, "bench.replay.serve", root);
  serve::SearchServerConfig scfg;
  scfg.maintainer.interval = std::chrono::milliseconds(0);
  serve::SearchServer server(scfg);
  constexpr int kSessions = 4;
  std::vector<double> open_s, close_s;
  for (int i = 0; i < kSessions; ++i) {
    serve::SessionConfig sc;
    sc.pipeline = in.cfg;
    const auto t0 = Clock::now();
    auto session = server.open(in.artifact_path, sc);
    const auto t1 = Clock::now();
    (void)session->submit_batch(in.stream);
    const auto t2 = Clock::now();
    (void)session->close();
    close_s.push_back(seconds_between(t2, Clock::now()));
    open_s.push_back(seconds_between(t0, t1));
  }
  const serve::SearchServerStats st = server.stats();
  out.add("serve.open_s", median(open_s), "s");
  out.add("serve.close_s", median(close_s), "s");
  out.add("serve.cache.hit_ratio",
          static_cast<double>(st.cache.hits) / kSessions, "ratio");
  out.add("serve.cache.backend_share_ratio",
          static_cast<double>(st.cache.backend_hits) / kSessions, "ratio");
  out.add("serve.admission.blocked",
          static_cast<double>(
              server.metrics_snapshot().counter("serve.admission.blocked")),
          "count");
  out.detail("serve_replay",
             "{\"sessions\":" + std::to_string(kSessions) +
                 ",\"base\":\"opens\",\"source\":\"replay\"}");
}

void probe_compact(const LayerInputs& in, const Args& args, SpanLog* log,
                   std::uint64_t root, RunResult& out) {
  Span span(log, "bench.replay.compact", root);
  // Two appends of halves of a small slice of the workload's own
  // references, then one compaction.
  const std::size_t n = std::min<std::size_t>(in.write_batch.size(), 512);
  const std::vector<ms::Spectrum> a(in.write_batch.begin(),
                                    in.write_batch.begin() + n / 2);
  const std::vector<ms::Spectrum> b(in.write_batch.begin() + n / 2,
                                    in.write_batch.begin() + n);
  const std::filesystem::path dir = args.tmp_dir / "compact_replay";
  std::filesystem::create_directories(dir);
  const std::string man = (dir / "lib.omsxman").string();
  const index::IndexBuilder builder(in.cfg);
  (void)builder.append(a, man);
  (void)builder.append(b, man);
  const auto t0 = Clock::now();
  const index::BuildStats st = builder.compact(man);
  out.add("index.compact_s", seconds_between(t0, Clock::now()), "s");
  out.add("index.compact.bytes", static_cast<double>(st.file_bytes), "bytes");
  std::filesystem::remove_all(dir);
  out.detail("compact_replay",
             "{\"segments\":2,\"targets\":" + std::to_string(n) +
                 ",\"source\":\"replay\"}");
}

}  // namespace

void replay_layers(const LayerInputs& in, const Args& args, SpanLog* log,
                   std::uint64_t root, RunResult& out) {
  const core::PipelineConfig& cfg = in.cfg;

  // ms: preprocessing of the stream's queries.
  {
    Span span(log, "ms.preprocess", root);
    ms::BinnedSpectrum b;
    const double per_call = mean_seconds([&] {
      for (const ms::Spectrum& s : in.stream) {
        (void)ms::preprocess(s, cfg.preprocess, b);
      }
    });
    out.add("ms.preprocess_us",
            per_call / static_cast<double>(in.stream.size()) * 1e6, "us");
  }
  const std::vector<ms::BinnedSpectrum> queries =
      preprocess_kept(in.stream, cfg);
  const std::vector<ms::BinnedSpectrum> written =
      preprocess_kept(in.write_batch, cfg);

  // hd: a fresh ID bank over the bins one stream (or, for a growing
  // library, one append batch) touches.
  {
    Span span(log, "hd.id_bank.ensure", root);
    const std::vector<std::uint32_t> bins =
        union_bins(in.id_bank_on_write ? written : queries);
    hd::IdBank bank(cfg.encoder.bins, cfg.encoder.dim,
                    cfg.encoder.id_precision, cfg.encoder.seed);
    const auto t0 = Clock::now();
    bank.ensure(bins);
    out.add("hd.id_bank.ensure_s", seconds_between(t0, Clock::now()), "s");
    out.add("hd.id_bank.rows", static_cast<double>(bins.size()), "count");
  }

  // hd: encode / accumulate / binarize on a warm bank, one thread.
  hd::Encoder encoder(cfg.encoder);
  encoder.id_bank().ensure(union_bins(queries));
  std::vector<util::BitVec> hvs;
  {
    Span span(log, "hd.encode", root);
    const double enc = mean_seconds([&] {
      hvs.clear();
      for (const auto& q : queries) hvs.push_back(encoder.encode(q.bins, q.weights));
    });
    std::vector<std::int32_t> acc(cfg.encoder.dim);
    const double accum = mean_seconds([&] {
      for (const auto& q : queries) {
        std::fill(acc.begin(), acc.end(), 0);
        encoder.accumulate(q.bins, q.weights, acc);
      }
    });
    const double bin = mean_seconds([&] {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        (void)hd::Encoder::binarize(acc);
      }
    });
    const double n = static_cast<double>(queries.size());
    out.add("hd.encode_us", enc / n * 1e6, "us");
    out.add("hd.accumulate_us", accum / n * 1e6, "us");
    out.add("hd.binarize_us", bin / n * 1e6, "us");
  }

  const auto wins = windows(in, queries);
  std::vector<hd::BatchQuery> batch;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    batch.push_back({&hvs[i], wins[i].first, wins[i].second, queries[i].id});
  }
  std::uint64_t rows_per_pass = 0;
  for (const auto& w : wins) rows_per_pass += w.second - w.first;

  // hd: the exact reference sweep over the library's RefView.
  {
    Span span(log, "hd.sweep", root);
    const hd::RefView view = in.index
                                 ? hd::RefView::from_matrix(in.index->ref_matrix())
                                 : in.segmented->ref_view();
    const double per_pass = mean_seconds([&] {
      for (std::size_t lo = 0; lo < batch.size(); lo += kEngineBlock) {
        const std::size_t hi = std::min(batch.size(), lo + kEngineBlock);
        (void)hd::top_k_search_batch(
            std::span<const hd::BatchQuery>(batch.data() + lo, hi - lo), view,
            cfg.rescore_top_k);
      }
    });
    // Counts are per stream, so they repeat exactly for a given seed.
    out.add("hd.sweep_ns_per_row",
            per_pass / static_cast<double>(std::max<std::uint64_t>(rows_per_pass, 1)) * 1e9,
            "ns");
    out.add("hd.rows_swept", static_cast<double>(rows_per_pass), "count");
    out.add("hd.bytes_swept",
            static_cast<double>(rows_per_pass) * cfg.encoder.dim / 8.0,
            "bytes");
  }

  // accel: IMC-model query encoding and IMC keyed search.
  {
    Span span(log, "accel.imc_encode", root);
    accel::ImcEncoder imc(encoder,
                          accel::ImcEncoderConfig{
                              cfg.backend_options.array,
                              accel::Fidelity::kStatistical,
                              cfg.backend_options.calibration_samples, cfg.seed});
    std::vector<std::size_t> counts;
    for (const auto& q : queries) counts.push_back(q.peak_count());
    imc.precalibrate(counts);
    const double per = mean_seconds([&] {
      for (const auto& q : queries) {
        (void)imc.encode_keyed(q.bins, q.weights, q.id);
      }
    });
    out.add("accel.imc_encode_us",
            per / static_cast<double>(queries.size()) * 1e6, "us");
  }
  {
    Span span(log, "accel.search", root);
    accel::ImcSearchConfig icfg;
    icfg.array = cfg.backend_options.array;
    icfg.activated_pairs = cfg.backend_options.activated_pairs;
    icfg.calibration_samples = cfg.backend_options.calibration_samples;
    icfg.seed = cfg.seed;
    const std::span<const util::BitVec> refs =
        in.index ? in.index->hypervectors() : in.segmented->hypervectors();
    const accel::ImcSearchEngine engine(refs, icfg);
    // One block of at most 16 queries per call: the keyed scalar path is
    // ~three orders of magnitude slower per pair than the popcount sweep.
    const std::size_t m = std::min<std::size_t>(batch.size(), 16);
    std::uint64_t pairs_per_call = 0;
    for (std::size_t i = 0; i < m; ++i) {
      pairs_per_call += batch[i].last - batch[i].first;
    }
    std::size_t calls = 0;
    const std::uint64_t phases0 = engine.phases_executed();
    const double per = mean_seconds(
        [&] {
          (void)engine.search_many(
              std::span<const hd::BatchQuery>(batch.data(), m), 1);
          ++calls;
        },
        0.2);
    // Counts are per block, so they repeat exactly for a given seed.
    out.add("accel.search_ns_per_pair",
            per / static_cast<double>(std::max<std::uint64_t>(pairs_per_call, 1)) * 1e9,
            "ns");
    out.add("accel.pairs_scored", static_cast<double>(pairs_per_call),
            "count");
    out.add("accel.phases_executed",
            static_cast<double>(engine.phases_executed() - phases0) /
                static_cast<double>(calls),
            "count");
  }

  // core: batch and rolling FDR over a pass's pre-FDR PSMs.
  {
    Span span(log, "core.fdr", root);
    const double filter = mean_seconds([&] {
      (void)core::filter_at_fdr_standard_open(in.psms, cfg.fdr_threshold);
    });
    out.add("core.fdr.filter_s", filter, "s");
    const double rolling = mean_seconds([&] {
      auto fdr = core::StreamingGroupedFdr::standard_open();
      for (std::size_t i = 0; i < in.psms.size(); ++i) {
        fdr.add(in.psms[i], i);
        (void)fdr.emit_confident(cfg.fdr_threshold, in.psms.size() - i - 1);
      }
    });
    out.add("core.streaming_fdr.us_per_psm",
            rolling / static_cast<double>(std::max<std::size_t>(in.psms.size(), 1)) * 1e6,
            "us");
  }

  // index: open of the workload's artifact (median of three).
  {
    Span span(log, "index.open", root);
    std::vector<double> opens;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      if (in.index) {
        (void)index::LibraryIndex::open(in.artifact_path);
      } else {
        (void)index::SegmentedLibrary::open(in.artifact_path);
      }
      opens.push_back(seconds_between(t0, Clock::now()));
    }
    out.add("index.open_s", median(opens), "s");
  }

  if (!in.serve_measured) probe_serve(in, log, root, out);
  if (!in.compact_measured) probe_compact(in, args, log, root, out);
}

}  // namespace omsbench
