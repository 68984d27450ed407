// Shared helpers for the per-figure bench binaries. Every bench accepts a
// --scale flag (or OMSHD_SCALE env var) multiplying the default workload
// sizes; defaults are chosen so the full bench suite runs in a few minutes
// on a laptop. --scale values near 1 approach the paper's dataset sizes
// (Table 1) at proportionally higher runtime.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "accel/perf_model.hpp"
#include "core/pipeline.hpp"
#include "ms/synthetic.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace oms::bench {

/// Default bench sizing: a few-thousandths of the paper-scale datasets,
/// with the query count kept high enough for stable identification counts.
struct BenchWorkloads {
  ms::WorkloadConfig iprg;
  ms::WorkloadConfig hek;
};

inline BenchWorkloads bench_workloads(double scale) {
  BenchWorkloads w;
  w.iprg = ms::WorkloadConfig::iprg2012_like(1.0);
  w.iprg.query_count = std::max<std::size_t>(
      200, static_cast<std::size_t>(800.0 * scale));
  w.iprg.reference_count = std::max<std::size_t>(
      1000, static_cast<std::size_t>(8000.0 * scale));
  w.hek = ms::WorkloadConfig::hek293_like(1.0);
  w.hek.query_count = std::max<std::size_t>(
      200, static_cast<std::size_t>(1200.0 * scale));
  w.hek.reference_count = std::max<std::size_t>(
      1000, static_cast<std::size_t>(12000.0 * scale));
  return w;
}

/// Pipeline defaults matching the paper's operating point (§5.3.1):
/// D = 8k, 3-bit ID precision, ±500 Da open window.
inline core::PipelineConfig paper_pipeline_config(std::uint32_t dim = 8192) {
  core::PipelineConfig cfg;
  cfg.encoder.dim = dim;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = dim / 32;
  cfg.encoder.id_precision = hd::IdPrecision::k3Bit;
  cfg.seed = 20240101;
  return cfg;
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("Reproduces: %s\n\n", paper.c_str());
}

/// PerfWorkload describing a *measured* bench run, for
/// accel::PerfModel::from_measured: the real query/reference counts and
/// encoder chunking drive the analytic encode-phase term, while the
/// search-phase and shard-entry counts come from BackendStats (the
/// candidate fraction is ignored on the measured path).
inline accel::PerfWorkload measured_workload(const std::string& name,
                                             std::size_t queries,
                                             std::size_t references,
                                             std::uint32_t dim,
                                             std::uint32_t chunks) {
  accel::PerfWorkload wl;
  wl.name = name;
  wl.n_queries = queries;
  wl.n_references = references;
  wl.dim = dim;
  wl.chunks = chunks;
  return wl;
}

/// One-line substrate accounting after a run: activation phases, shard
/// entries, calibrated noise, and how many queries each batched block
/// amortized — the counters behind the accelerator's
/// cost-amortized-across-queries story.
inline void print_backend_stats(const core::BackendStats& s) {
  std::printf(
      "backend %-16s refs=%zu shards=%zu phases=%llu shard_entries=%llu "
      "sigma=%.4f gain=%.4f blocks=%llu queries/block=%.1f\n",
      s.backend.c_str(), s.references, s.shards,
      static_cast<unsigned long long>(s.phases_executed),
      static_cast<unsigned long long>(s.shard_entries), s.phase_sigma, s.gain,
      static_cast<unsigned long long>(s.query_blocks), s.queries_per_block());
}

/// Private per-process directory for a bench's on-disk artifacts, created
/// under the system temp directory and removed with everything in it when
/// the object goes out of scope — so concurrent bench runs never collide
/// on a fixed path.
class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "omshd-bench-XXXXXX")
            .string();
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("cannot create a scratch directory: " + tmpl);
    }
    path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// Path of `name` inside the directory.
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace oms::bench
