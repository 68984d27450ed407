// omsbench — the OMS benchmark binary.
//
//   omsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload in this process and prints, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics untraced (--trace 0), the per-layer metrics traced
// (--trace 1). Workload shapes, accounting and per-rung rows go to
// standard error as one JSON line; traced runs also write a Chrome trace
// and a self-time table under .bench_out/. Artifacts live in a private
// directory under .bench_tmp/ that is removed before exit. Both paths are
// relative to the working directory, the root of the checkout.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

using omsbench::RunResult;

const std::vector<std::string> kEndToEnd = {
    "setup_s",          "qps",
    "peak_rss_mb",      "success_ratio",
    "stream_p50_s",     "stream_tail_s",
    "first_psm_p50_s",  "first_psm_tail_s",
    "sustained_streams_per_s", "append_p50_s",
    "append_tail_s"};

const std::vector<std::string> kPerLayer = {
    "ms.preprocess_us",
    "hd.id_bank.ensure_s",
    "hd.id_bank.rows",
    "hd.encode_us",
    "hd.accumulate_us",
    "hd.binarize_us",
    "hd.sweep_ns_per_row",
    "hd.rows_swept",
    "hd.bytes_swept",
    "accel.imc_encode_us",
    "accel.search_ns_per_pair",
    "accel.pairs_scored",
    "accel.phases_executed",
    "core.search_batch_s",
    "core.queries_per_block",
    "core.engine.encode_s",
    "core.engine.search_s",
    "core.engine.rescore_s",
    "core.engine.queue_wait_s",
    "core.engine.gate_wait_s",
    "core.engine.admission_wait_s",
    "core.fdr.filter_s",
    "core.streaming_fdr.us_per_psm",
    "index.build_s",
    "index.open_s",
    "index.append.encode_s",
    "index.append.write_s",
    "index.compact_s",
    "index.compact.bytes",
    "index.extents",
    "serve.open_s",
    "serve.close_s",
    "serve.cache.hit_ratio",
    "serve.cache.backend_share_ratio",
    "serve.admission.blocked",
    "bench.generator_lag_tail_s",
    "bench.trace_overhead_ratio"};

/// Private artifact directory, removed on every exit path of main.
class TempDir {
 public:
  explicit TempDir(const std::filesystem::path& root) {
    std::filesystem::create_directories(root);
    std::string tmpl = (root / "run-XXXXXX").string();
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("cannot create a temp directory under " +
                               root.string());
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

int usage() {
  std::fprintf(stderr,
               "usage: omsbench --workload <batch_open|imc_search|"
               "serve_short_streams|grow_and_search> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  omsbench::Args args;
  args.out_dir = ".bench_out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") args.workload = val;
    else if (key == "--seed") args.seed = std::stoull(val);
    else if (key == "--seconds") args.seconds = std::stod(val);
    else if (key == "--trace") args.trace = val == "1";
    else return usage();
  }
  if (argc % 2 == 0 || args.workload.empty() || args.seconds <= 0) {
    return usage();
  }

  omsbench::register_traced_backends();
  RunResult r;
  try {
    const TempDir tmp(".bench_tmp");
    args.tmp_dir = tmp.path();
    if (args.workload == "batch_open") {
      r = omsbench::run_batch_open(args);
    } else if (args.workload == "imc_search") {
      r = omsbench::run_imc_search(args);
    } else if (args.workload == "serve_short_streams") {
      r = omsbench::run_serve_short_streams(args);
    } else if (args.workload == "grow_and_search") {
      r = omsbench::run_grow_and_search(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "omsbench: %s\n", e.what());
    return 1;
  }

  // Every named metric, each exactly once.
  const std::vector<std::string>& want = args.trace ? kPerLayer : kEndToEnd;
  std::set<std::string> got;
  for (const auto& m : r.metrics) {
    if (!got.insert(m.name).second) {
      std::fprintf(stderr, "omsbench: metric %s reported twice\n",
                   m.name.c_str());
      return 3;
    }
  }
  if (got != std::set<std::string>(want.begin(), want.end())) {
    for (const auto& n : want) {
      if (got.count(n) == 0) std::fprintf(stderr, "missing %s\n", n.c_str());
    }
    for (const auto& n : got) {
      if (std::find(want.begin(), want.end(), n) == want.end()) {
        std::fprintf(stderr, "unexpected %s\n", n.c_str());
      }
    }
    return 3;
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const auto& [name, p] : r.phases) {
    attempted += p.attempted;
    failed += p.failed + p.refused;
  }
  std::string details = "{\"workload\":\"" + args.workload +
                        "\",\"seed\":" + std::to_string(args.seed) +
                        ",\"trace\":" + (args.trace ? "true" : "false");
  for (const auto& [k, v] : r.details) details += ",\"" + k + "\":" + v;
  if (!r.correct) {
    details += ",\"mismatch\":\"" + r.mismatch + "\"";
    std::fprintf(stderr, "omsbench: output check failed: %s\n",
                 r.mismatch.c_str());
  }
  std::fprintf(stderr, "%s}\n", details.c_str());

  std::string out = std::string("{\"correct\": ") +
                    (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           omsbench::num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("%s}}\n", out.c_str());
  return 0;
}
