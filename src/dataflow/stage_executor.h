#ifndef BIGDANSING_DATAFLOW_STAGE_EXECUTOR_H_
#define BIGDANSING_DATAFLOW_STAGE_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "dataflow/context.h"
#include "obs/profiler.h"
#include "obs/resource_accounting.h"

namespace bigdansing {

/// The single task-scheduling point of the dataflow engine. Every unit of
/// parallel work — map-side fused pipelines, reduce-side merges, join
/// probes, repair components — runs through Run()/RunProducing()/
/// RunMorsels(), so it is uniformly:
///
///  - counted (stages/tasks totals in Metrics),
///  - timed (per-item CPU time accrued to logical worker `item % workers`,
///    feeding Metrics::SimulatedWallSeconds()),
///  - attributed to a named stage (a StageReport carrying task count,
///    records in/out, shuffled records and busy/wall seconds), and
///  - recovered: each attempt probes the FaultInjector site named after
///    the stage, a body that throws TaskFailure is retried with capped
///    exponential backoff under the context's FaultPolicy, and straggler
///    tasks of producing stages can be speculatively duplicated.
///
/// All three entry points feed one engine. A stage is a static list of
/// work items `{task, piece, begin, end}`: Run and RunProducing submit one
/// item per task, RunMorsels cuts each task into morsel-sized unit ranges
/// (a whole task is a one-item task). The item index is the coordinate of
/// fault-injection sites, worker lanes and trace lanes, independent of
/// which thread happens to run the item.
///
/// Recovery semantics (the substrate services Spark/Hadoop provided the
/// paper's system for free, §3):
///
///  - Retry: bodies are deterministic per item, so a re-executed attempt
///    reproduces the original result bit-identically — the same argument
///    that makes lineage re-execution sound in Spark. An item is retried
///    up to FaultPolicy::max_attempts times; a shared per-stage retry
///    budget bounds total re-execution. Exhaustion fails the stage with a
///    non-OK Status (never abort); any exception other than TaskFailure is
///    non-retryable and fails the stage immediately.
///  - Speculation (RunProducing only): once at least half the tasks have
///    committed, a task running longer than `multiplier x median committed
///    task wall time` is duplicated. Attempts write into per-attempt
///    buffers (the body's return value); the first attempt to win the
///    per-item commit race publishes its buffer, the loser's writes are
///    discarded, so records are never double-counted in the StageReport.
///    In-place stages (Run) never speculate: their bodies write caller
///    memory directly, so duplicate attempts could race. Morsel stages
///    never speculate: a straggling morsel is already small.
///
/// Retry/speculation activity is folded into the StageReport and annotated
/// onto the stage's trace span, so EXPLAIN shows recovery per stage.
///
/// StageExecutor is a cheap value type: construct one on the spot wherever
/// a stage needs to run.
class StageExecutor {
 public:
  using TaskBody = std::function<void(size_t task, TaskContext& tc)>;

  explicit StageExecutor(ExecutionContext* ctx) : ctx_(ctx) {}

  /// Runs `body(t, tc)` for every task index t in [0, num_tasks) on the
  /// context's worker pool and blocks until all tasks finish (or the stage
  /// fails). `body` must be safe to invoke concurrently for distinct
  /// indices, and is retried on TaskFailure — injected faults fire before
  /// the body runs, so an injected failure never leaves partial writes; a
  /// body that throws TaskFailure itself mid-write must be idempotent.
  ///
  /// When tracing is enabled, the stage gets a span (parented to the calling
  /// thread's innermost scope — rule/operator/phase) and every attempt a
  /// child span on its logical-worker lane; after the stage finishes, the
  /// stage span is annotated with the StageReport's measured counters so the
  /// runtime EXPLAIN reconciles exactly with Metrics::StageReports().
  [[nodiscard]] Status Run(const std::string& stage_name, size_t num_tasks,
                           const TaskBody& body) const {
    struct Unit {};
    auto result = Execute<Unit>(
        stage_name, num_tasks, WholeTasks(num_tasks),
        [&body](const WorkItem& w, TaskContext& tc) {
          body(w.task, tc);
          return Unit{};
        },
        Mode::kInPlace, nullptr);
    return result.ok() ? Status::OK() : result.status();
  }

  /// Convenience overload for bodies that do not report record counts.
  [[nodiscard]] Status Run(const std::string& stage_name, size_t num_tasks,
                           const std::function<void(size_t)>& body) const {
    return Run(stage_name, num_tasks,
               [&body](size_t t, TaskContext& /*tc*/) { body(t); });
  }

  /// Like Run(), but each task *returns* its output instead of writing it
  /// into caller memory; the engine publishes exactly one committed attempt
  /// per task into slot t of the result. Because attempts are buffered,
  /// producing stages are both retryable and speculation-capable. Prefer
  /// this form for any stage that fills a per-task output slot.
  template <typename T>
  [[nodiscard]] Result<std::vector<T>> RunProducing(
      const std::string& stage_name, size_t num_tasks,
      const std::function<T(size_t, TaskContext&)>& body) const {
    return Execute<T>(
        stage_name, num_tasks, WholeTasks(num_tasks),
        [&body](const WorkItem& w, TaskContext& tc) {
          return body(w.task, tc);
        },
        Mode::kProducing, nullptr);
  }

  /// Morsel-driven form of RunProducing for splittable stages: task t's
  /// work is `task_units(t)` independent units (rows, blocks, pairs) and
  /// `body(t, begin, end, tc)` processes the half-open unit range,
  /// returning a partial result. The engine cuts each task into
  /// ctx->morsel_rows()-sized morsels, schedules every morsel as its own
  /// work item (so a skewed partition no longer serializes the stage — idle
  /// workers claim its morsels), and the driver folds task t's partials in
  /// ascending unit order with `merge(t, pieces)` — which makes the result
  /// bit-identical to running body(t, 0, task_units(t), tc) whenever merge
  /// is the natural concatenation of range outputs. A task with no units
  /// gets no morsel and merges an empty list.
  ///
  /// Each morsel's CPU time lands in the StageReport's task_seconds (so
  /// quantiles/straggler ratio describe the real scheduling units) and
  /// StageReport.morsels counts them. Morsel stages never speculate.
  template <typename T>
  [[nodiscard]] Result<std::vector<T>> RunMorsels(
      const std::string& stage_name, size_t num_tasks,
      const std::function<size_t(size_t)>& task_units,
      const std::function<T(size_t, size_t, size_t, TaskContext&)>& body,
      const std::function<T(size_t, std::vector<T>&&)>& merge) const {
    const size_t morsel_rows = ctx_->morsel_rows();
    std::vector<WorkItem> items;
    // first[t] is task t's first item; its items end where task t+1's begin.
    std::vector<size_t> first(num_tasks + 1, 0);
    for (size_t t = 0; t < num_tasks; ++t) {
      const size_t units = task_units(t);
      // ceil(units / morsel_rows), without wrapping for huge morsel sizes.
      const size_t pieces = units == 0 ? 0 : (units - 1) / morsel_rows + 1;
      for (size_t p = 0; p < pieces; ++p) {
        const size_t begin = p * morsel_rows;
        items.push_back(WorkItem{t, p, begin,
                                 begin + std::min(morsel_rows, units - begin)});
      }
      first[t + 1] = items.size();
    }
    return Execute<T>(
        stage_name, num_tasks, std::move(items),
        [&body](const WorkItem& w, TaskContext& tc) {
          return body(w.task, w.begin, w.end, tc);
        },
        Mode::kMorsels, [&](std::vector<T>&& pieces) {
          std::vector<T> out(num_tasks);
          for (size_t t = 0; t < num_tasks; ++t) {
            auto begin = std::make_move_iterator(pieces.begin() + first[t]);
            auto end = std::make_move_iterator(pieces.begin() + first[t + 1]);
            out[t] = merge(t, std::vector<T>(begin, end));
          }
          return out;
        });
  }

 private:
  /// One scheduled unit of a stage: units [begin, end) of task `task`, its
  /// `piece`-th morsel. Whole-task items are piece 0 with an empty range.
  struct WorkItem {
    size_t task;
    size_t piece;
    size_t begin;
    size_t end;
  };

  /// kInPlace (Run) and kProducing (RunProducing) run one item per task;
  /// only kProducing may speculate. kMorsels (RunMorsels) runs split items.
  enum class Mode { kInPlace, kProducing, kMorsels };

  static std::vector<WorkItem> WholeTasks(size_t num_tasks) {
    std::vector<WorkItem> items(num_tasks);
    for (size_t t = 0; t < num_tasks; ++t) items[t] = WorkItem{t, 0, 0, 0};
    return items;
  }

  /// The engine. Claims item indices with an atomic counter (the driver
  /// participates alongside pool helpers, so nested stages cannot deadlock
  /// a busy pool), runs the retry loop per item and commits each item's
  /// value into its slot; the driver then monitors for stragglers until
  /// every item has settled and no attempt is still in flight. On success
  /// the per-item values pass through `fold` (when set) on the driver,
  /// inside the stage's bracket, into the per-task result.
  template <typename T>
  Result<std::vector<T>> Execute(
      const std::string& stage_name, size_t num_tasks,
      std::vector<WorkItem> items,
      const std::function<T(const WorkItem&, TaskContext&)>& body, Mode mode,
      const std::function<std::vector<T>(std::vector<T>&&)>& fold) const {
    Metrics& metrics = ctx_->metrics();
    TraceRecorder& trace = TraceRecorder::Instance();
    std::optional<ScopedSpan> stage_span;
    if (trace.enabled()) stage_span.emplace(stage_name, "stage");
    if (LogEnabled(LogLevel::kDebug)) {
      BD_LOG(Debug) << "stage begin: " << stage_name
                    << " tasks=" << num_tasks << " items=" << items.size();
    }
    const size_t handle = metrics.BeginStage(stage_name, num_tasks);
    // Resource accounting brackets the stage: RSS and steal-counter deltas
    // between here and FinishStage land in the StageReport.
    StageResourceProbe resource_probe;
    const bool split = mode == Mode::kMorsels;
    const char* kind = split ? "morsel" : "task";
    const ActivityDesc* activity =
        Profiler::Instance().Intern(stage_name, kind);
    Stopwatch wall;
    const size_t total = items.size();
    std::vector<T> out(total);

    // Heap-held shared state: a pool helper that wakes up after the stage
    // already finished must be able to observe "nothing left to claim"
    // without touching driver-stack memory, so its closure captures this
    // by shared_ptr and dereferences the stack-held Engine only after a
    // successful claim (an unclaimed item pins the driver in Execute).
    struct Shared {
      explicit Shared(size_t n, int64_t budget)
          : retry_budget(budget),
            committed(n),
            settled_flag(n),
            spec_state(n),
            started_at(n) {
        for (auto& s : started_at) s.store(-1.0, std::memory_order_relaxed);
      }
      std::atomic<size_t> next{0};
      std::atomic<size_t> settled{0};
      std::atomic<size_t> inflight{0};
      std::atomic<bool> failed{false};
      std::atomic<int64_t> retry_budget;
      std::atomic<uint64_t> retries{0};
      std::atomic<uint64_t> failed_attempts{0};
      std::atomic<uint64_t> spec_launched{0};
      std::atomic<uint64_t> spec_committed{0};
      std::vector<std::atomic<uint8_t>> committed;     // attempt won the race
      std::vector<std::atomic<uint8_t>> settled_flag;  // item is accounted for
      std::vector<std::atomic<uint8_t>> spec_state;    // duplicate launched
      std::vector<std::atomic<double>> started_at;     // -1 until claimed
      std::mutex mu;
      Status status = Status::OK();          // first failure (mu)
      std::vector<double> committed_wall;    // per-item wall durations (mu)
    };

    const FaultPolicy policy = ctx_->fault_policy();
    auto shared = std::make_shared<Shared>(
        total, static_cast<int64_t>(policy.stage_retry_budget));
    const bool speculate =
        mode == Mode::kProducing && policy.speculation && total >= 2;

    struct Engine {
      Shared& sh;
      const std::string& stage_name;
      const std::vector<WorkItem>& items;
      const std::function<T(const WorkItem&, TaskContext&)>& body;
      std::vector<T>& out;
      Metrics& metrics;
      size_t handle;
      size_t workers;
      bool split;
      bool speculate;
      const char* kind;
      uint64_t stage_span_id;
      Histogram& task_seconds_hist;
      const FaultPolicy& policy;
      size_t max_attempts;
      FaultInjector& injector;
      Stopwatch& wall;
      const ActivityDesc* activity;

      void Fail(Status st) {
        std::lock_guard<std::mutex> lock(sh.mu);
        if (!sh.failed.load(std::memory_order_relaxed)) {
          sh.status = std::move(st);
          sh.failed.store(true, std::memory_order_release);
        }
      }

      /// Marks item i as accounted for exactly once (whether it committed
      /// a result or the stage gave up on it).
      void Settle(size_t i) {
        uint8_t expected = 0;
        if (sh.settled_flag[i].compare_exchange_strong(expected, 1)) {
          sh.settled.fetch_add(1, std::memory_order_acq_rel);
        }
      }

      enum Outcome { kCommitted, kLost, kRetryable, kFatal };

      Outcome AttemptOnce(size_t i, size_t attempt, bool speculative) {
        const WorkItem& w = items[i];
        std::optional<ScopedSpan> span;
        if (stage_span_id != 0) {
          std::string name = stage_name + "#" + std::to_string(w.task);
          if (split) name += "." + std::to_string(w.piece);
          span.emplace(std::move(name), kind, stage_span_id,
                       static_cast<int64_t>(i % workers));
          if (attempt > 0) {
            span->Annotate("attempt", static_cast<uint64_t>(attempt));
          }
          if (speculative) span->Annotate("speculative", uint64_t{1});
        }
        // Publish what this worker is doing for the sampling profiler;
        // nested on top of the pool's generic "run" activity. A morsel
        // shows its unit range, a whole task its index.
        ScopedActivity act(activity, split ? w.begin : w.task,
                           split ? w.end : w.task + 1);
        ThreadCpuStopwatch timer;
        const ThreadAllocCounters alloc_before = ThreadAllocations();
        TaskContext tc;
        tc.attempt = attempt;
        tc.speculative = speculative;
        try {
          // The injection site fires before the body, so a failed attempt
          // has performed no work and a retry starts from a clean slate.
          injector.OnSite(stage_name, i, attempt);
          T value = body(w, tc);
          const ThreadAllocCounters alloc_after = ThreadAllocations();
          tc.alloc_bytes = alloc_after.bytes - alloc_before.bytes;
          tc.allocs = alloc_after.count - alloc_before.count;
          const double busy = timer.ElapsedSeconds();
          // Observed after the CPU timer stopped, so the histogram update
          // does not inflate the simulated-wall accounting.
          task_seconds_hist.Observe(busy);
          // Losers still burned a worker: their time counts toward the
          // simulated cluster wall, just never into the stage's records.
          metrics.RecordTaskTime(i % workers, busy);
          uint8_t expected = 0;
          if (!sh.committed[i].compare_exchange_strong(expected, 1)) {
            if (span) span->Annotate("discarded", uint64_t{1});
            return kLost;
          }
          out[i] = std::move(value);
          metrics.AccumulateTask(handle, tc, busy, split);
          if (speculative) {
            sh.spec_committed.fetch_add(1, std::memory_order_relaxed);
          }
          if (speculate) {
            std::lock_guard<std::mutex> lock(sh.mu);
            const double started =
                sh.started_at[i].load(std::memory_order_relaxed);
            if (started >= 0.0) {
              sh.committed_wall.push_back(wall.ElapsedSeconds() - started);
            }
          }
          if (span) {
            span->Annotate("records_in", tc.records_in);
            span->Annotate("records_out", tc.records_out);
            span->Annotate("busy_seconds", busy);
          }
          Settle(i);
          return kCommitted;
        } catch (const TaskFailure& failure) {
          metrics.RecordTaskTime(i % workers, timer.ElapsedSeconds());
          sh.failed_attempts.fetch_add(1, std::memory_order_relaxed);
          if (span) span->Annotate("failed", std::string(failure.what()));
          return kRetryable;
        } catch (const std::exception& e) {
          sh.failed_attempts.fetch_add(1, std::memory_order_relaxed);
          if (span) span->Annotate("failed", std::string(e.what()));
          Fail(Status::Internal("stage '" + stage_name + "' " + kind + " " +
                                std::to_string(i) +
                                " threw non-retryable exception: " + e.what()));
          return kFatal;
        }
      }

      /// First (non-speculative) execution of item i: retry loop with
      /// capped exponential backoff under the stage's FaultPolicy.
      void RunPrimary(size_t i) {
        if (speculate) {
          sh.started_at[i].store(wall.ElapsedSeconds(),
                                 std::memory_order_relaxed);
        }
        size_t attempt = 0;
        double backoff_ms = policy.backoff_initial_ms;
        for (;;) {
          if (sh.failed.load(std::memory_order_acquire)) {
            Settle(i);
            return;
          }
          const Outcome outcome = AttemptOnce(i, attempt, false);
          if (outcome == kCommitted || outcome == kLost) return;
          if (outcome == kFatal) {
            Settle(i);
            return;
          }
          ++attempt;
          if (attempt >= max_attempts) {
            Fail(Status::Internal("stage '" + stage_name + "': " + kind +
                                  " " + std::to_string(i) + " failed after " +
                                  std::to_string(attempt) + " attempt(s)"));
            Settle(i);
            return;
          }
          if (sh.retry_budget.fetch_sub(1, std::memory_order_acq_rel) <= 0) {
            Fail(Status::Internal(
                "stage '" + stage_name + "': retry budget exhausted (" +
                std::to_string(policy.stage_retry_budget) + ")"));
            Settle(i);
            return;
          }
          sh.retries.fetch_add(1, std::memory_order_relaxed);
          SleepForMs(std::min(backoff_ms, policy.backoff_max_ms));
          backoff_ms *= 2.0;
        }
      }

      /// Driver-side straggler monitor pass: duplicates at most one item
      /// whose elapsed wall time exceeds the speculation threshold. The
      /// duplicate runs inline on the driver — submitting it to the pool
      /// could queue it behind the very straggler it is meant to bypass.
      void TrySpeculate() {
        double median = 0.0;
        {
          std::lock_guard<std::mutex> lock(sh.mu);
          if (sh.committed_wall.size() <
              std::max<size_t>(2, items.size() / 2)) {
            return;
          }
          std::vector<double> sorted = sh.committed_wall;
          std::sort(sorted.begin(), sorted.end());
          median = sorted[(sorted.size() - 1) / 2];
        }
        const double now = wall.ElapsedSeconds();
        const double threshold =
            std::max(policy.speculation_min_seconds,
                     policy.speculation_multiplier * median);
        for (size_t i = 0; i < items.size(); ++i) {
          if (sh.settled_flag[i].load(std::memory_order_acquire) != 0) continue;
          if (sh.committed[i].load(std::memory_order_acquire) != 0) continue;
          const double started =
              sh.started_at[i].load(std::memory_order_relaxed);
          if (started < 0.0) continue;  // not yet claimed
          if (now - started < threshold) continue;
          uint8_t expected = 0;
          if (!sh.spec_state[i].compare_exchange_strong(expected, 1)) continue;
          sh.spec_launched.fetch_add(1, std::memory_order_relaxed);
          sh.inflight.fetch_add(1, std::memory_order_acq_rel);
          // The duplicate gets an attempt number past the retry range so
          // its injector draws are independent of the primary's.
          AttemptOnce(i, max_attempts, true);
          sh.inflight.fetch_sub(1, std::memory_order_acq_rel);
          return;
        }
      }
    };

    Engine engine{*shared,
                  stage_name,
                  items,
                  body,
                  out,
                  metrics,
                  handle,
                  ctx_->num_workers(),
                  split,
                  speculate,
                  kind,
                  stage_span ? stage_span->id() : 0,
                  MetricsRegistry::Instance().GetHistogram("stage.task_seconds"),
                  policy,
                  std::max<size_t>(1, policy.max_attempts),
                  FaultInjector::Instance(),
                  wall,
                  activity};

    // Pool helpers claim items exactly like the driver. A helper touches
    // only `shared` until a claim succeeds; a successful claim proves the
    // driver is still inside Execute (an unclaimed item cannot settle), so
    // dereferencing `engine` is safe from then on. At most pool-width
    // helpers are submitted, however many items the stage has.
    Engine* engine_ptr = &engine;
    auto drain = [total](Shared& sh, Engine* e) {
      for (;;) {
        const size_t i = sh.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) return;
        sh.inflight.fetch_add(1, std::memory_order_acq_rel);
        e->RunPrimary(i);
        sh.inflight.fetch_sub(1, std::memory_order_acq_rel);
      }
    };
    const size_t helper_count =
        total == 0 ? 0 : std::min(ctx_->pool().num_threads(), total - 1);
    for (size_t h = 0; h < helper_count; ++h) {
      ctx_->pool().Submit(
          [shared, engine_ptr, drain]() { drain(*shared, engine_ptr); });
    }
    // Driver participates in the claim loop, then monitors stragglers.
    drain(*shared, engine_ptr);
    while (shared->settled.load(std::memory_order_acquire) < total ||
           shared->inflight.load(std::memory_order_acquire) > 0) {
      if (speculate && !shared->failed.load(std::memory_order_relaxed)) {
        engine.TrySpeculate();
      }
      if (speculate) {
        SleepForMs(0.2);
      } else {
        std::this_thread::yield();
      }
    }

    const uint64_t retries = shared->retries.load(std::memory_order_relaxed);
    const uint64_t failed_attempts =
        shared->failed_attempts.load(std::memory_order_relaxed);
    const uint64_t spec_launched =
        shared->spec_launched.load(std::memory_order_relaxed);
    const uint64_t spec_committed =
        shared->spec_committed.load(std::memory_order_relaxed);
    metrics.RecordStageRecovery(handle, retries, failed_attempts,
                                spec_launched, spec_committed);
    const bool failed = shared->failed.load(std::memory_order_acquire);
    // Deterministic commit: item values fold in item order on the driver,
    // so the output is independent of execution interleaving.
    if (!failed && fold) out = fold(std::move(out));
    metrics.RecordStageResources(handle, resource_probe.RssDeltaBytes(),
                                 resource_probe.StealsDelta());
    metrics.FinishStage(handle, wall.ElapsedSeconds());
    StageReport final_report = metrics.StageReportFor(handle);
    if (stage_span) AnnotateFromReport(*stage_span, final_report);
    MetricsRegistry& registry = MetricsRegistry::Instance();
    if (split) registry.GetCounter("stage.morsels").Add(total);
    if (final_report.alloc_bytes > 0) {
      registry.GetCounter("stage.alloc_bytes").Add(final_report.alloc_bytes);
    }
    if (retries > 0) registry.GetCounter("stage.retries").Add(retries);
    if (failed_attempts > 0) {
      registry.GetCounter("stage.failed_attempts").Add(failed_attempts);
    }
    if (spec_launched > 0) {
      registry.GetCounter("stage.speculative_launched").Add(spec_launched);
    }
    if (spec_committed > 0) {
      registry.GetCounter("stage.speculative_committed").Add(spec_committed);
    }
    if (LogEnabled(LogLevel::kDebug)) {
      BD_LOG(Debug) << "stage end: " << stage_name
                    << " wall=" << wall.ElapsedSeconds()
                    << "s retries=" << retries;
    }
    if (failed) {
      std::lock_guard<std::mutex> lock(shared->mu);
      BD_LOG(Warning) << "stage failed: " << stage_name << " — "
                      << shared->status.ToString();
      return shared->status;
    }
    return out;
  }

  /// Copies the finished stage's measured counters onto its span. Record
  /// counts use exact integers and times the same %.6f formatting as
  /// Metrics::StageReportsJson(), so EXPLAIN output reconciles with the
  /// stage reports without rounding drift.
  static void AnnotateFromReport(ScopedSpan& span, const StageReport& r) {
    span.Annotate("tasks", r.tasks);
    span.Annotate("records_in", r.records_in);
    span.Annotate("records_out", r.records_out);
    if (r.records_in > 0) {
      span.Annotate("selectivity", static_cast<double>(r.records_out) /
                                       static_cast<double>(r.records_in));
    }
    span.Annotate("shuffled_records", r.shuffled_records);
    span.Annotate("busy_seconds", r.busy_seconds);
    if (r.morsels > 0) span.Annotate("morsels", r.morsels);
    // Resource accounting annotations only when they measured something,
    // so platforms without the hooks keep their EXPLAIN output unchanged.
    if (r.alloc_bytes > 0) span.Annotate("alloc_bytes", r.alloc_bytes);
    if (r.allocs > 0) span.Annotate("allocs", r.allocs);
    if (r.rss_delta_bytes != 0) {
      span.Annotate("rss_delta_bytes", std::to_string(r.rss_delta_bytes));
    }
    if (r.steals > 0) span.Annotate("steals", r.steals);
    span.Annotate("task_seconds_min", r.TaskMinSeconds());
    span.Annotate("task_seconds_p50", r.TaskP50Seconds());
    span.Annotate("task_seconds_max", r.TaskMaxSeconds());
    span.Annotate("straggler_ratio", r.StragglerRatio());
    // Recovery annotations only when the stage actually saw recovery
    // activity, so fault-free EXPLAIN output stays unchanged.
    if (r.retries > 0) span.Annotate("retries", r.retries);
    if (r.failed_attempts > 0) {
      span.Annotate("failed_attempts", r.failed_attempts);
    }
    if (r.speculative_launched > 0) {
      span.Annotate("speculative_launched", r.speculative_launched);
    }
    if (r.speculative_committed > 0) {
      span.Annotate("speculative_committed", r.speculative_committed);
    }
  }

  ExecutionContext* ctx_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_DATAFLOW_STAGE_EXECUTOR_H_
