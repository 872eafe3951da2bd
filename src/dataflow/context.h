#ifndef BIGDANSING_DATAFLOW_CONTEXT_H_
#define BIGDANSING_DATAFLOW_CONTEXT_H_

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <string_view>

#include "common/fault.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "dataflow/metrics.h"

namespace bigdansing {

/// Emulated execution backend. kSpark keeps stage outputs in memory; kHadoop
/// models a disk-based MapReduce engine by charging a per-record
/// materialization cost at every stage boundary (the paper's
/// BigDansing-Hadoop is 16-22x slower than BigDansing-Spark on large inputs
/// for this reason, §6.3).
enum class Backend { kSpark, kHadoop };

/// The "cluster": worker count, task scheduler and metrics for one dataflow
/// job graph. Stands in for a SparkContext. Worker count is the scale-out
/// knob for the multi-node experiments; each partition task is scheduled on
/// the pool, so work distribution matches a cluster topologically even when
/// the host has few cores.
class ExecutionContext {
 public:
  explicit ExecutionContext(size_t num_workers, Backend backend = Backend::kSpark)
      : num_workers_(num_workers == 0 ? 1 : num_workers),
        backend_(backend),
        // BD_THREADS overrides the physical thread count without changing
        // the logical cluster size used for partitioning and accounting.
        pool_(std::make_unique<ThreadPool>(
            ThreadPool::EnvThreadsOr(num_workers_))) {}

  size_t num_workers() const { return num_workers_; }
  Backend backend() const { return backend_; }
  ThreadPool& pool() { return *pool_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  /// Default partition count for new datasets (2 waves per worker).
  size_t default_partitions() const { return num_workers_ * 2; }

  /// Rows per morsel for splittable stages (at least 1; a size at or
  /// above a task's units runs that task as one morsel). Defaults from
  /// BD_MORSEL_ROWS; override per context for tests and ablations.
  size_t morsel_rows() const { return morsel_rows_; }
  void set_morsel_rows(size_t rows) {
    BD_CHECK(rows >= 1) << "morsel_rows must be at least 1";
    morsel_rows_ = rows;
  }

  /// BD_MORSEL_ROWS when it is a whole number >= 1, else 2048 (with a
  /// warning when set to anything else) — sized so one morsel's rows plus
  /// its output stay inside a typical 256KB–1MB L2 slice for the
  /// ~100-byte records of the bundled datasets.
  static size_t DefaultMorselRows() {
    if (const char* env = std::getenv("BD_MORSEL_ROWS")) {
      char* end = nullptr;
      long value = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && value >= 1) {
        return static_cast<size_t>(value);
      }
      BD_LOG(Warning) << "BD_MORSEL_ROWS='" << env
                      << "' is not a row count >= 1; using 2048";
    }
    return 2048;
  }

  /// Whether declarative rules route through the columnar detect kernels
  /// (dictionary-encoded keys + compiled predicate kernels). Off, every
  /// rule takes the interpreted path — the bit-identical oracle. Defaults
  /// from BD_KERNELS; override per context for tests and ablations.
  bool kernels_enabled() const { return kernels_enabled_; }
  void set_kernels_enabled(bool enabled) { kernels_enabled_ = enabled; }

  /// BD_KERNELS unset or any value but "0" enables the kernel path; "0"
  /// restores the exact interpreted engine.
  static bool DefaultKernelsEnabled() {
    if (const char* env = std::getenv("BD_KERNELS")) {
      return std::string_view(env) != "0";
    }
    return true;
  }

  /// Recovery policy every stage launched on this context runs under
  /// (retry attempts, backoff, speculation). Defaults from the environment
  /// (BD_SPECULATION); override per request via DetectRequest::fault_policy
  /// or CleanOptions::fault_policy (see ScopedFaultPolicy).
  const FaultPolicy& fault_policy() const { return fault_policy_; }
  void set_fault_policy(const FaultPolicy& policy) { fault_policy_ = policy; }

  /// Per-record cost charged at stage boundaries in Hadoop mode; emulates
  /// serializing each stage's output to a distributed file system and
  /// re-reading it (MapReduce materializes between jobs; Spark keeps RDDs
  /// in memory). The mix count is calibrated so a multi-stage pipeline runs
  /// a single-digit factor slower in Hadoop mode — milder than the paper's
  /// 16-22x (their jobs also paid HDFS replication and JVM startup).
  void ChargeMaterialization(size_t num_records) {
    if (backend_ != Backend::kHadoop) return;
    volatile uint64_t sink = 0;
    for (size_t i = 0; i < num_records; ++i) {
      uint64_t h = i;
      for (int k = 0; k < 400; ++k) h = StableHashUint64(h + k);
      sink = sink + h;
    }
    (void)sink;
  }

 private:
  size_t num_workers_;
  Backend backend_;
  std::unique_ptr<ThreadPool> pool_;
  Metrics metrics_;
  FaultPolicy fault_policy_ = FaultPolicy::FromEnv();
  size_t morsel_rows_ = DefaultMorselRows();
  bool kernels_enabled_ = DefaultKernelsEnabled();
};

/// RAII override of a context's fault policy for the extent of one request
/// (a DetectRequest or a whole Clean). Restores the previous policy on
/// scope exit, so nested overrides compose.
class ScopedFaultPolicy {
 public:
  ScopedFaultPolicy(ExecutionContext* ctx, const FaultPolicy& policy)
      : ctx_(ctx), saved_(ctx->fault_policy()) {
    ctx_->set_fault_policy(policy);
  }
  ~ScopedFaultPolicy() { ctx_->set_fault_policy(saved_); }
  ScopedFaultPolicy(const ScopedFaultPolicy&) = delete;
  ScopedFaultPolicy& operator=(const ScopedFaultPolicy&) = delete;

 private:
  ExecutionContext* ctx_;
  FaultPolicy saved_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_DATAFLOW_CONTEXT_H_
