// The four benchmark workloads and the per-layer replay probes.
//
// Every workload runs in its own process, generates its inputs from the
// seed alone, builds its artifacts in a private temp directory, times a
// window of `seconds`, and checks every accepted-PSM list it produced
// against a solo core::Pipeline::run over the same queries and the same
// library generation (computed outside the timed window).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "index/library_index.hpp"
#include "index/segmented_library.hpp"

namespace omsbench {

[[nodiscard]] RunResult run_batch_open(const Args& args);
[[nodiscard]] RunResult run_imc_search(const Args& args);
[[nodiscard]] RunResult run_serve_short_streams(const Args& args);
[[nodiscard]] RunResult run_grow_and_search(const Args& args);

/// What a workload hands the replay probes: its own inputs, so each
/// layer's public function is timed on exactly what the workload fed it.
struct LayerInputs {
  core::PipelineConfig cfg;          ///< Plain (untraced) backend name.
  std::vector<ms::Spectrum> stream;  ///< One stream's queries.
  /// Reference spectra of one library write (an append batch, or the
  /// targets behind a one-shot build), for the ID-bank probe of the
  /// write side and the compaction replay.
  std::vector<ms::Spectrum> write_batch;
  std::shared_ptr<const index::LibraryIndex> index;        ///< Or:
  std::shared_ptr<const index::SegmentedLibrary> segmented;
  std::string artifact_path;   ///< Index file or manifest.
  std::vector<core::Psm> psms;  ///< Pre-FDR PSMs of a pass, for FDR replay.
  /// The ID-bank probe covers the write batch instead of the stream.
  bool id_bank_on_write = false;
  /// Layers the workload measured live; the replay skips them.
  bool serve_measured = false;
  bool compact_measured = false;
};

/// Replays the workload's inputs through ms, hd, accel, core FDR and index
/// open (plus serve and compaction when the workload did not exercise
/// them), adding one metric per probe to `out`. Spans go under `root`.
void replay_layers(const LayerInputs& in, const Args& args, SpanLog* log,
                   std::uint64_t root, RunResult& out);

}  // namespace omsbench
