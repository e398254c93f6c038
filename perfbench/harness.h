// Shared plumbing of the seeded benchmark driver: command-line options,
// sample statistics, the result report, scratch storage inside the
// checkout, and the traced run's span log with per-layer self-time
// attribution.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every workload's data scale; the self-test runs at a tiny
  /// fraction so it finishes in seconds.
  double scale_factor = 1.0;
  /// Flips one bit of every reference digest so the self-test can check
  /// that mismatches are counted as failed operations.
  bool perturb_reference = false;
  /// Scratch root for heap files, index files and the span dump. Relative
  /// to the working directory, which is the checkout's root.
  std::string workdir = ".perfbench_work";
};

/// Parses `argv`; on malformed input prints usage to stderr and returns
/// false.
bool ParseArgs(int argc, char** argv, Args* args);

/// A bag of measurements with order statistics.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const;
  /// Nearest-rank percentile, q in [0, 1]; 0 when empty.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }

 private:
  std::vector<double> values_;
};

/// The result of one run: operation accounting plus named metrics. The last
/// line the driver prints is Json().
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Descriptive key/value printed on the PERFBENCH_INFO line (sizes, host).
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n = 1) { failed_ += n; }
  /// Marks the run's outputs wrong even when no single operation failed
  /// (e.g. a reference that could not be computed).
  void MarkIncorrect() { incorrect_ = true; }

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{...}}
  std::string Json() const;
  std::string InfoJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool incorrect_ = false;
};

/// A DiskManager + BufferPool over a fresh directory under the scratch
/// root; the directory is removed on destruction.
class Workspace {
 public:
  Workspace(const std::string& root, size_t pool_bytes);
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  pbsm::DiskManager* disk() { return disk_.get(); }
  pbsm::BufferPool* pool() { return pool_.get(); }

 private:
  std::string dir_;
  std::unique_ptr<pbsm::DiskManager> disk_;
  std::unique_ptr<pbsm::BufferPool> pool_;
};

/// Creates a unique, empty directory under `root` and returns its path.
std::string MakeScratchDir(const std::string& root, const std::string& tag);

/// Peak resident set of this process in MiB.
double PeakRssMiB();

/// Microseconds on the tracer's steady clock, so bench spans and the
/// program's own spans share one time base.
uint64_t NowMicros();

// ---------------------------------------------------------------------------
// Traced-run span log.
//
// Timed runs keep every span off. In a traced run the benchmark records its
// own spans (name, start, end, parent, request id) around each operation
// and around calls into a layer that has no span of its own, and the
// program records its existing phase, operator and service spans in the
// global tracer. Attribute() merges both and charges each span's self time
// (its duration minus the part its children cover) to a layer.
// ---------------------------------------------------------------------------

struct BenchSpan {
  std::string name;
  uint64_t start_us = 0;
  uint64_t end_us = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  ///< Enclosing bench span on the same thread; 0 = op.
  uint64_t request = 0;
};

/// Per-layer self time, summed over the traced window.
struct LayerTimes {
  std::map<std::string, double> self_seconds;  ///< Layer -> seconds.
  double op_seconds = 0.0;  ///< Sum of root (operation) span durations.
  uint64_t ops = 0;         ///< Root spans.
  uint64_t dropped_spans = 0;

  double Self(const std::string& layer) const {
    auto it = self_seconds.find(layer);
    return it == self_seconds.end() ? 0.0 : it->second;
  }
  /// Share of operation time charged to a layer.
  double Coverage() const;
};

class SpanLog {
 public:
  /// The process-wide log. Disabled until Enable(true).
  static SpanLog& Get();

  /// Turns bench spans and the program's tracer on or off together.
  void Enable(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// RAII span on the calling thread; a no-op while the log is disabled.
  class Scope {
   public:
    Scope(const char* name, uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    bool active_ = false;
    BenchSpan span_;
  };

  /// Records an interval the program reports but does not span, such as a
  /// service query's queue wait (JoinResponse::queue_seconds).
  void AddInterval(const char* name, uint64_t start_us, uint64_t end_us,
                   uint64_t request);

  /// Merges bench spans with the tracer's finished spans and returns the
  /// per-layer self times. Call once, after the traced window.
  LayerTimes Attribute() const;

  /// Writes both span sets as JSON to `path` (best effort).
  void Dump(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<BenchSpan> spans_;  ///< Guarded by mu_.
};

// ---------------------------------------------------------------------------
// Counter deltas over a measurement window.
// ---------------------------------------------------------------------------

class CounterWindow {
 public:
  CounterWindow() : before_(pbsm::MetricsRegistry::Global().Snapshot()) {}
  /// Freezes the window's end.
  void Close() {
    delta_ = pbsm::MetricsRegistry::Global().Snapshot().Delta(before_);
  }
  uint64_t Count(const std::string& name) const { return delta_.counter(name); }
  /// Sum of every counter whose name starts with `prefix` and ends with
  /// `suffix`.
  uint64_t SumMatching(const std::string& prefix,
                       const std::string& suffix) const;

 private:
  pbsm::MetricsSnapshot before_;
  pbsm::MetricsSnapshot delta_;
};

/// num / den, or 0 when den is 0.
double Ratio(double num, double den);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
