#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <unordered_map>

#include "core/search_backend.hpp"

namespace omsbench {

core::PipelineConfig paper_config(const std::string& backend) {
  core::PipelineConfig cfg;
  cfg.encoder.dim = 8192;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = cfg.encoder.dim / 32;
  cfg.encoder.id_precision = hd::IdPrecision::k3Bit;
  cfg.oms_window_da = 500.0;
  cfg.seed = 20240101;
  cfg.backend_name = backend;
  return cfg;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.samples = v.size();
  if (v.empty()) return s;
  s.p50 = median(v);
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n >= 21) {
    // Order statistic v[n-11] has exactly ten samples above it.
    s.tail = v[n - 11];
    s.tail_percentile = 100.0 * static_cast<double>(n - 10) /
                        static_cast<double>(n);
  } else {
    // Too few samples for a percentile above the median with ten beyond.
    s.tail = s.p50;
    s.tail_percentile = 50.0;
  }
  return s;
}

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string psm_diff(const core::Psm& a, const core::Psm& b) {
  if (a.query_id != b.query_id) return "query_id";
  if (a.peptide != b.peptide) return "peptide";
  if (!same_bits(a.score, b.score)) return "score";
  if (a.is_decoy != b.is_decoy) return "is_decoy";
  if (!same_bits(a.mass_shift, b.mass_shift)) return "mass_shift";
  if (a.reference_index != b.reference_index) return "reference_index";
  return {};
}

}  // namespace

std::string compare_psms(const std::vector<core::Psm>& got,
                         const std::vector<core::Psm>& want) {
  if (got.size() != want.size()) {
    return "accepted count " + std::to_string(got.size()) + " vs oracle " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string d = psm_diff(got[i], want[i]);
    if (!d.empty()) {
      return "accepted[" + std::to_string(i) + "] differs in " + d +
             " (query " + std::to_string(got[i].query_id) + ")";
    }
  }
  return {};
}

std::string compare_psm_sets(std::vector<core::Psm> got,
                             std::vector<core::Psm> want) {
  const auto by_query = [](const core::Psm& a, const core::Psm& b) {
    return a.query_id < b.query_id;
  };
  std::stable_sort(got.begin(), got.end(), by_query);
  std::stable_sort(want.begin(), want.end(), by_query);
  return compare_psms(got, want);
}

// --- Span log ------------------------------------------------------------

SpanLog::SpanLog() : epoch_(Clock::now()) {}

void SpanLog::record(SpanRecord rec) {
  const std::lock_guard lock(mutex_);
  spans_.push_back(std::move(rec));
}

std::vector<SpanRecord> SpanLog::spans() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

Span::Span(SpanLog* log, std::string name, std::uint64_t parent,
           std::uint64_t request)
    : log_(log) {
  if (log_ == nullptr) return;
  rec_.name = std::move(name);
  rec_.id = log_->next_id();
  rec_.parent = parent;
  rec_.request = request;
  rec_.tid = thread_lane();
  rec_.start_s = log_->now();
}

Span::~Span() {
  if (log_ == nullptr) return;
  rec_.end_s = log_->now();
  log_->record(std::move(rec_));
}

std::uint32_t thread_lane() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t lane = next.fetch_add(1);
  return lane;
}

std::vector<SelfTimeRow> self_times(const std::vector<SpanRecord>& spans,
                                    std::uint64_t root_id) {
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  const auto root_it = by_id.find(root_id);
  if (root_it == by_id.end()) return {};
  const SpanRecord& root = *root_it->second;

  // Only spans under the root (by parent chain) take part.
  std::vector<const SpanRecord*> members;
  for (const SpanRecord& s : spans) {
    for (std::uint64_t p = s.id; p != 0;) {
      if (p == root_id) {
        members.push_back(&s);
        break;
      }
      const auto it = by_id.find(p);
      p = it == by_id.end() ? 0 : it->second->parent;
    }
  }

  std::vector<double> bounds;
  for (const SpanRecord* s : members) {
    bounds.push_back(std::clamp(s->start_s, root.start_s, root.end_s));
    bounds.push_back(std::clamp(s->end_s, root.start_s, root.end_s));
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  std::map<std::string, SelfTimeRow> rows;
  for (const SpanRecord* s : members) {
    SelfTimeRow& r = rows[s->name];
    r.name = s->name;
    ++r.spans;
  }
  std::vector<const SpanRecord*> active;
  std::set<std::uint64_t> inner;
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    const double lo = bounds[b];
    const double hi = bounds[b + 1];
    const double mid = 0.5 * (lo + hi);
    active.clear();
    for (const SpanRecord* s : members) {
      if (s->start_s <= mid && s->end_s > mid) active.push_back(s);
    }
    // A span is innermost unless another open span descends from it.
    inner.clear();
    for (const SpanRecord* s : active) {
      for (std::uint64_t p = s->parent; p != 0;) {
        inner.insert(p);
        const auto it = by_id.find(p);
        p = it == by_id.end() ? 0 : it->second->parent;
      }
    }
    std::vector<const SpanRecord*> leaves;
    for (const SpanRecord* s : active) {
      if (inner.count(s->id) == 0) leaves.push_back(s);
    }
    if (leaves.empty()) continue;
    const double share = (hi - lo) / static_cast<double>(leaves.size());
    for (const SpanRecord* s : leaves) rows[s->name].self_s += share;
  }
  std::vector<SelfTimeRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const SelfTimeRow& a, const SelfTimeRow& b) {
              return a.self_s > b.self_s;
            });
  return out;
}

void write_chrome_trace(const std::filesystem::path& path,
                        const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << num(s.start_s * 1e6)
        << ",\"dur\":" << num((s.end_s - s.start_s) * 1e6)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
}

// --- Forwarding search backend -------------------------------------------

SearchProbe& search_probe() {
  static SearchProbe probe;
  return probe;
}

namespace {

class TracedBackend final : public core::SearchBackend {
 public:
  TracedBackend(std::string name, std::unique_ptr<core::SearchBackend> inner)
      : name_(std::move(name)), inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  [[nodiscard]] std::vector<hd::SearchHit> top_k(
      const util::BitVec& query, std::size_t first, std::size_t last,
      std::size_t k, std::uint64_t stream) override {
    return inner_->top_k(query, first, last, k, stream);
  }
  [[nodiscard]] bool thread_safe() const noexcept override {
    return inner_->thread_safe();
  }
  [[nodiscard]] std::vector<std::vector<hd::SearchHit>> search_batch(
      std::span<const core::Query> queries, std::size_t k) override {
    SearchProbe& probe = search_probe();
    SpanLog* log = nullptr;
    std::function<std::uint64_t(std::uint64_t)> parent_of;
    {
      const std::lock_guard lock(probe.mutex);
      log = probe.log;
      parent_of = probe.parent_of;
    }
    const std::uint64_t request = queries.empty() ? 0 : queries[0].stream;
    const std::uint64_t parent = parent_of ? parent_of(request) : 0;
    const auto t0 = Clock::now();
    std::vector<std::vector<hd::SearchHit>> out;
    {
      Span span(log, "core.search_batch", parent, request);
      out = inner_->search_batch(queries, k);
    }
    const double s = seconds_between(t0, Clock::now());
    const std::lock_guard lock(probe.mutex);
    probe.block_seconds.push_back(s);
    ++probe.blocks;
    probe.queries += queries.size();
    return out;
  }
  [[nodiscard]] core::BackendStats stats() const override {
    return inner_->stats();
  }

 private:
  std::string name_;
  std::unique_ptr<core::SearchBackend> inner_;
};

}  // namespace

void register_traced_backends() {
  auto& registry = core::BackendRegistry::instance();
  for (const std::string inner : {"ideal-hd", "rram-statistical"}) {
    const std::string name = "traced-" + inner;
    const core::BackendRegistry::EncodingTrait trait =
        [inner](const core::BackendOptions& opts) {
          return core::BackendRegistry::instance().imc_encoding(inner, opts);
        };
    registry.register_backend(
        name,
        [name, inner](std::span<const util::BitVec> refs,
                      const core::BackendOptions& opts) {
          return std::make_unique<TracedBackend>(
              name, core::BackendRegistry::instance().make(inner, refs, opts));
        },
        trait);
  }
}

// --- Helpers -------------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string summary_json(const Summary& s) {
  std::ostringstream o;
  o << "{\"samples\":" << s.samples << ",\"p50\":" << num(s.p50)
    << ",\"tail\":" << num(s.tail)
    << ",\"tail_percentile\":" << num(s.tail_percentile) << "}";
  return o.str();
}

}  // namespace omsbench
