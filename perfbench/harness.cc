#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "common/trace.h"

namespace perfbench {

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale-factor F] [--perturb-reference 0|1] "
               "[--workdir DIR]\n");
}

bool ParseDouble(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool ParseFlag(const char* s, bool* out) {
  if (std::strcmp(s, "0") == 0) {
    *out = false;
  } else if (std::strcmp(s, "1") == 0) {
    *out = true;
  } else {
    return false;
  }
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return false;
    }
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      char* end = nullptr;
      args->seed = std::strtoull(value, &end, 10);
      ok = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      ok = ParseDouble(value, &args->seconds) && args->seconds > 0.0 &&
           args->seconds <= 3600.0;
    } else if (flag == "--trace") {
      ok = ParseFlag(value, &args->trace);
    } else if (flag == "--scale-factor") {
      ok = ParseDouble(value, &args->scale_factor) &&
           args->scale_factor > 0.0 && args->scale_factor <= 1.0;
    } else if (flag == "--perturb-reference") {
      ok = ParseFlag(value, &args->perturb_reference);
    } else if (flag == "--workdir") {
      args->workdir = value;
      ok = !args->workdir.empty();
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad flag or value: %s %s\n", flag.c_str(), value);
      Usage();
      return false;
    }
  }
  if (!have_workload) Usage();
  return have_workload;
}

// --- Samples ----------------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  double s = 0.0;
  for (const double v : values_) s += v;
  return s;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

// --- Report -----------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Info(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  quoted += JsonEscape(value);
  quoted += '"';
  info_.emplace_back(key, std::move(quoted));
}

void Report::Info(const std::string& key, double value) {
  info_.emplace_back(key, FormatNumber(value));
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += (failed_ == 0 && !incorrect_ && attempted_ > 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += JsonEscape(metrics_[i].name);
    out += "\": {\"value\": ";
    out += FormatNumber(metrics_[i].value);
    out += ", \"unit\": \"";
    out += JsonEscape(metrics_[i].unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

std::string Report::InfoJson() const {
  std::string out = "{";
  for (size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += JsonEscape(info_[i].first);
    out += "\": ";
    out += info_[i].second;
  }
  out += "}";
  return out;
}

// --- Scratch storage ----------------------------------------------------------

std::string MakeScratchDir(const std::string& root, const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  std::filesystem::create_directories(root);
  for (;;) {
    const std::string dir = root + "/" + tag + "-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(counter.fetch_add(1));
    if (std::filesystem::create_directory(dir)) return dir;
  }
}

Workspace::Workspace(const std::string& root, size_t pool_bytes)
    : dir_(MakeScratchDir(root, "ws")) {
  disk_ = std::make_unique<pbsm::DiskManager>(dir_);
  pool_ = std::make_unique<pbsm::BufferPool>(disk_.get(), pool_bytes);
}

Workspace::~Workspace() {
  pool_.reset();
  disk_.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

double PeakRssMiB() {
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

uint64_t NowMicros() { return pbsm::Tracer::Global().NowMicros(); }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- Span log -----------------------------------------------------------------

namespace {

thread_local std::vector<uint32_t> tls_open_bench_spans;

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// The layer a program span's self time is charged to, by span name. Bench
/// spans are named after their layer already ("storage.heap_append").
std::string LayerOfProgramSpan(const std::string& name) {
  if (StartsWith(name, "join/")) return "core.join";
  if (StartsWith(name, "partition")) return "core.partition";
  if (StartsWith(name, "refinement") || StartsWith(name, "refine/")) {
    return "core.refine";
  }
  static const char* const kFilterPhases[] = {
      "merge ",          "join trees",  "probe index",   "filter partitions",
      "sweep partitions", "multiway filter", "transform ", "sample "};
  for (const char* phase : kFilterPhases) {
    if (StartsWith(name, phase)) return "core.filter";
  }
  if (StartsWith(name, "build index") || name == "service/index_build") {
    return "rtree.build";
  }
  if (StartsWith(name, "rtree/")) return "rtree";
  if (StartsWith(name, "exec/")) return "exec.op";
  if (name == "service/query_view") return "exec.view";
  if (StartsWith(name, "service/") || StartsWith(name, "router/") ||
      StartsWith(name, "shard/")) {
    return "service";
  }
  return "other";
}

}  // namespace

double LayerTimes::Coverage() const {
  double covered = 0.0;
  for (const auto& [layer, seconds] : self_seconds) {
    if (layer != "other") covered += seconds;
  }
  return Ratio(covered, op_seconds);
}

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();
  return *log;
}

void SpanLog::Enable(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
  pbsm::Tracer::Global().set_enabled(on);
}

SpanLog::Scope::Scope(const char* name, uint64_t request) {
  SpanLog& log = Get();
  if (!log.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.request = request;
  span_.id = log.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent =
      tls_open_bench_spans.empty() ? 0 : tls_open_bench_spans.back();
  tls_open_bench_spans.push_back(span_.id);
  span_.start_us = NowMicros();
}

SpanLog::Scope::~Scope() {
  if (!active_) return;
  span_.end_us = NowMicros();
  tls_open_bench_spans.pop_back();
  SpanLog& log = Get();
  std::lock_guard<std::mutex> lock(log.mu_);
  log.spans_.push_back(std::move(span_));
}

void SpanLog::AddInterval(const char* name, uint64_t start_us,
                          uint64_t end_us, uint64_t request) {
  if (!enabled()) return;
  BenchSpan span;
  span.name = name;
  span.start_us = start_us;
  span.end_us = std::max(start_us, end_us);
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = UINT32_MAX;  // Inside some operation, on another thread.
  span.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

LayerTimes SpanLog::Attribute() const {
  LayerTimes out;
  std::vector<BenchSpan> bench;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bench = spans_;
  }
  // Bench spans: roots are operations; the others are layer calls the
  // program does not span itself, named after their layer.
  std::unordered_map<uint32_t, double> bench_child_seconds;
  for (const BenchSpan& s : bench) {
    if (s.parent != 0 && s.parent != UINT32_MAX) {
      bench_child_seconds[s.parent] +=
          static_cast<double>(s.end_us - s.start_us) * 1e-6;
    }
  }
  for (const BenchSpan& s : bench) {
    const double dur = static_cast<double>(s.end_us - s.start_us) * 1e-6;
    if (s.parent == 0) {
      out.op_seconds += dur;
      ++out.ops;
      continue;
    }
    out.self_seconds[s.name] += dur - bench_child_seconds[s.id];
  }

  // Program spans: self time = duration minus direct children (same thread).
  const std::vector<pbsm::SpanRecord> program =
      pbsm::Tracer::Global().FinishedSpans();
  out.dropped_spans = pbsm::Tracer::Global().dropped_spans();
  std::unordered_map<uint32_t, double> child_seconds;
  for (const pbsm::SpanRecord& r : program) {
    if (r.parent_id != 0) child_seconds[r.parent_id] += r.duration_seconds();
  }
  for (const pbsm::SpanRecord& r : program) {
    const double self = r.duration_seconds() - child_seconds[r.span_id];
    out.self_seconds[LayerOfProgramSpan(r.name)] += std::max(0.0, self);
  }
  return out;
}

void SpanLog::Dump(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return;
  std::vector<BenchSpan> bench;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bench = spans_;
  }
  f << "{\"bench_spans\":[";
  for (size_t i = 0; i < bench.size(); ++i) {
    const BenchSpan& s = bench[i];
    f << (i ? "," : "") << "{\"name\":\"" << JsonEscape(s.name)
      << "\",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
      << ",\"id\":" << s.id << ",\"parent\":"
      << (s.parent == UINT32_MAX ? 0 : s.parent)
      << ",\"request\":" << s.request << "}";
  }
  f << "],\"program_spans\":[";
  const std::vector<pbsm::SpanRecord> program =
      pbsm::Tracer::Global().FinishedSpans();
  for (size_t i = 0; i < program.size(); ++i) {
    const pbsm::SpanRecord& r = program[i];
    f << (i ? "," : "") << "{\"name\":\"" << JsonEscape(r.name)
      << "\",\"start_us\":" << r.start_us << ",\"end_us\":" << r.end_us
      << ",\"thread\":" << r.thread_id << ",\"id\":" << r.span_id
      << ",\"parent\":" << r.parent_id << "}";
  }
  f << "]}\n";
}

// --- Counters -----------------------------------------------------------------

uint64_t CounterWindow::SumMatching(const std::string& prefix,
                                    const std::string& suffix) const {
  uint64_t sum = 0;
  for (const auto& [name, value] : delta_.counters) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += value;
    }
  }
  return sum;
}

}  // namespace perfbench
