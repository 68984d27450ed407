// Shared vocabulary of the OMS benchmark: run arguments, the fixed
// operating point, latency summaries, per-phase accounting, the span log
// the traced run records, and the result every workload returns.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/fdr.hpp"
#include "core/pipeline.hpp"
#include "ms/spectrum.hpp"

namespace omsbench {

using namespace oms;  // NOLINT: the benchmark speaks the program's vocabulary
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path out_dir;  ///< Trace files (traced runs only).
  std::filesystem::path tmp_dir;  ///< Private artifact directory.
};

/// The paper's operating point (§5.3.1): D = 8192, 3-bit IDs, ±500 Da open
/// window. Fixed here rather than shared with bench/ so the benchmark's
/// workloads cannot drift with the per-figure benches.
[[nodiscard]] core::PipelineConfig paper_config(const std::string& backend);

/// Median and tail of a latency sample. The tail is the highest
/// percentile with at least ten samples beyond it; below 21 samples no
/// percentile above the median qualifies, and the tail is the median.
struct Summary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
};
[[nodiscard]] Summary summarize(std::vector<double> v);
[[nodiscard]] double median(std::vector<double> v);

/// Attempted / succeeded / failed / refused operations of one kind.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports. `details` holds pre-rendered JSON members
/// (shape, per-rung rows, tail percentiles) written beside the metrics.
struct RunResult {
  bool correct = true;
  std::string mismatch;  ///< First output-check failure, if any.
  std::map<std::string, Phase> phases;  ///< queries, session_opens, appends.
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> details;

  void fail(const std::string& why) {
    if (correct) mismatch = why;
    correct = false;
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void detail(const std::string& key, const std::string& json) {
    details.emplace_back(key, json);
  }
};

/// Accepted-PSM equality, bit for bit: same order, ids, peptides, decoy
/// flags, reference indices, and identical score / mass-shift doubles.
/// Returns an empty string on a match, else what differed.
[[nodiscard]] std::string compare_psms(const std::vector<core::Psm>& got,
                                       const std::vector<core::Psm>& want);

/// Same, ignoring order (on_accept releases in any order).
[[nodiscard]] std::string compare_psm_sets(std::vector<core::Psm> got,
                                           std::vector<core::Psm> want);

// --- Span log ------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = none.
  std::uint64_t request = 0;  ///< Spans of one request share this.
  std::uint32_t tid = 0;
  double start_s = 0.0;  ///< Seconds since the log's epoch.
  double end_s = 0.0;
};

/// In-memory span log. Spans are recorded at layer boundaries by the
/// benchmark's own code (around calls into each layer's public function),
/// never from inside the program.
class SpanLog {
 public:
  SpanLog();
  [[nodiscard]] std::uint64_t next_id() { return next_.fetch_add(1); }
  [[nodiscard]] double now() const {
    return seconds_between(epoch_, Clock::now());
  }
  void record(SpanRecord rec);
  [[nodiscard]] std::vector<SpanRecord> spans() const;

 private:
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op when `log` is null (untraced runs).
class Span {
 public:
  Span(SpanLog* log, std::string name, std::uint64_t parent = 0,
       std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::uint64_t id() const noexcept { return rec_.id; }

 private:
  SpanLog* log_;
  SpanRecord rec_;
};

/// Small dense id of the calling thread, for trace lanes.
[[nodiscard]] std::uint32_t thread_lane();

/// Per-layer self time over [window_start, window_end]: each instant is
/// split evenly among the innermost spans open at it; time under the root
/// span alone is the unattributed remainder. Rows sum to the window.
struct SelfTimeRow {
  std::string name;
  std::uint64_t spans = 0;
  double self_s = 0.0;
};
[[nodiscard]] std::vector<SelfTimeRow> self_times(
    const std::vector<SpanRecord>& spans, std::uint64_t root_id);

/// Writes Chrome trace-event JSON (loadable by Perfetto / about:tracing).
void write_chrome_trace(const std::filesystem::path& path,
                        const std::vector<SpanRecord>& spans);

// --- Forwarding search backend -------------------------------------------

/// Observation hook of the "traced-<name>" backends: every search_batch
/// call is recorded as a `core.search_batch` span whose parent the
/// workload resolves from the block's first query stream.
struct SearchProbe {
  SpanLog* log = nullptr;
  std::function<std::uint64_t(std::uint64_t stream)> parent_of;
  std::mutex mutex;
  std::vector<double> block_seconds;
  std::uint64_t blocks = 0;
  std::uint64_t queries = 0;
};
[[nodiscard]] SearchProbe& search_probe();

/// Registers "traced-ideal-hd" and "traced-rram-statistical": forwarding
/// backends over the built-ins, with the same encoding traits, so
/// artifacts and fingerprints are shared with the plain names.
void register_traced_backends();

// --- Helpers shared by the workloads -------------------------------------

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// A JSON number with all its digits.
[[nodiscard]] std::string num(double v);
[[nodiscard]] std::string summary_json(const Summary& s);

}  // namespace omsbench
