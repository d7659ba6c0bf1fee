#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline int64_t NanosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Identity of the measured sources (git SHA or tree digest), stamped
  /// on the result.
  std::string source;
  /// Where the traced run writes its span log (empty: not written).
  std::string span_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main: its correctness tally and
/// its metrics (end-to-end when untraced, per-layer when traced).
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;  // first few, for stderr
  std::vector<Metric> metrics;

  /// Counts one checked operation; a false `ok` is a failed one.
  void Check(bool ok, const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit);
};

/// Every end-to-end metric, in output order, with its unit. BENCHMARK.json
/// lists the same names.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
/// Every per-layer metric, in output order, with its unit.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Emits every per-layer metric in table order: `values` holds the ones
/// this workload measures; a layer the workload bypasses reads 0.
void EmitLayers(Result& result, const std::map<std::string, double>& values);

/// The simulated (or virtual-clock) outcome of every submitted
/// transaction: the inputs of the (sim) end-to-end metrics.
class OutcomeSummary {
 public:
  void Completed(double response, double tardiness, double weighted_tardiness,
                 bool on_time);
  /// A shed or dropped transaction: a miss for goodput and slo_attain.
  void Lost() { ++submitted_; }

  /// Adds avg_tardiness_s, avg_weighted_tardiness_s, resp_p50_s,
  /// resp_p99_s, resp_p999_s, goodput and slo_attain. A refused
  /// percentile (too few samples beyond it) is a failed check.
  void Emit(Result& result);

 private:
  size_t submitted_ = 0;
  size_t completed_ = 0;
  size_t on_time_ = 0;
  double tardiness_sum_ = 0.0;
  double weighted_sum_ = 0.0;
  std::vector<double> responses_;  // completed only
};

/// Adds decision_ms_p50 and decision_ms_p99: nearest-rank percentiles
/// of per-decision wall times in milliseconds.
void EmitDecisionMs(Result& result, std::vector<double> samples_ms);

/// Threads this process may run on (sched_getaffinity).
unsigned NumCpus();
/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Pins the calling thread to the i-th CPU it may run on (cycling) for
/// its lifetime, then restores the thread's affinity. Single-threaded
/// timed loops pin repetition i to CPU i: a CPU slowed by a neighbour
/// for a whole run then slows only some repetitions, which the lower
/// quartile filters. Threads created while pinned inherit the pin, so
/// only code that starts no threads may run under it.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(size_t i);
  ~PinnedToCpu();
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Exits with an error unless `threads` fits in NumCpus().
void RequireThreads(const char* workload, unsigned threads);

/// Median of `values` (empty: 0).
double Median(std::vector<double> values);

/// Nearest-rank lower quartile of `values` (empty: 0). Host timings use
/// it over repetitions within a run: interference from other processes
/// only ever slows a repetition, so the fast quartile tracks the program
/// and the slow tail tracks the neighbours.
double LowerQuartile(std::vector<double> values);

/// `by_pass[p][u]` is unit u's time in pass p; returns each unit's
/// nearest-rank lower decile across passes (its fastest repetition when
/// there are ten passes or fewer). Units are short and repeated many
/// times, so a deeper filter than LowerQuartile is affordable; filtering
/// per unit, rather than per pass, removes a burst of interference
/// shorter than one pass.
std::vector<double> PerUnitLowerDecile(
    const std::vector<std::vector<double>>& by_pass);

/// The time of one pass with every unit at its lower decile: the sum of
/// PerUnitLowerDecile.
double FilteredPassTime(const std::vector<std::vector<double>>& by_pass);

/// FNV-1a step over one 64-bit word (digests of benchmark-side data).
inline uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Derives the i-th input seed of a run from the command-line seed.
uint64_t SubSeed(uint64_t seed, uint64_t i);

/// Seed of the pinned reference inputs every run also checks, whatever
/// its --seed: the (sim) metrics come from them, so they are
/// byte-identical across runs and move only when behaviour changes.
inline constexpr uint64_t kReferenceSeed = 2009;

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
