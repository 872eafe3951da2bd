#ifndef BIGDANSING_CORE_STREAM_SESSION_H_
#define BIGDANSING_CORE_STREAM_SESSION_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "core/bigdansing.h"
#include "core/fix_point.h"
#include "core/physical_plan.h"
#include "data/dictionary.h"
#include "data/table.h"
#include "dataflow/context.h"
#include "obs/stream_stats.h"
#include "rules/detect_kernel.h"
#include "rules/rule.h"

namespace bigdansing {

/// Options for a streaming cleanse session (BigDansing::OpenStream).
struct StreamOptions {
  /// Planner/repair/freeze knobs shared with the one-shot path. Every
  /// window is one fix-point run capped at clean.max_iterations, and
  /// clean.fault_policy scopes every window's stages.
  CleanOptions clean;

  /// Rows per micro-batch; Append() splits larger row vectors. 0 inherits
  /// DefaultBatchRows() (BD_STREAM_BATCH_ROWS, default 4096).
  size_t batch_rows = 0;

  /// Bound on queued (not yet processed) micro-batches. 0 inherits
  /// DefaultMaxInflight() (BD_STREAM_MAX_INFLIGHT, default 4).
  size_t max_inflight_batches = 0;

  /// Backpressure contract when Append() would exceed the in-flight bound:
  /// true  -> Append() drains queued batches inline (the caller's thread
  ///          runs Poll()) until the queue fits — it blocks, never fails;
  /// false -> Append() rejects the whole call with ResourceExhausted
  ///          before enqueueing anything; the caller Poll()s and retries.
  bool block_on_backpressure = true;

  /// Observability namespace (the /streams record name, the /stages
  /// context label, the /quality run session). Empty -> "stream-<id>".
  std::string session_name;

  /// BD_STREAM_BATCH_ROWS when set and positive, else 4096.
  static size_t DefaultBatchRows();
  /// BD_STREAM_MAX_INFLIGHT when set and positive, else 4.
  static size_t DefaultMaxInflight();
};

/// Outcome of one processed window (one Poll(), or Flush()'s verification
/// run).
struct StreamWindowReport {
  uint64_t window_id = 0;
  size_t appended_rows = 0;
  /// Dirty blocks this window touched (across rules) and the candidate
  /// rows the incremental index fed into detection.
  size_t dirty_blocks = 0;
  size_t candidate_rows = 0;
  size_t violations = 0;
  size_t applied_fixes = 0;
  size_t iterations = 0;
  bool converged = false;
  double detect_seconds = 0.0;
  double repair_seconds = 0.0;
};

/// Outcome of Flush(): every window drained plus the verification window.
struct StreamFlushReport {
  std::vector<StreamWindowReport> windows;
  /// True when the final full-table verification reached a fix point.
  bool converged = false;
  size_t total_violations = 0;
  size_t total_applied_fixes = 0;
};

/// A long-running streaming cleanse session over one table: rows arrive via
/// Append() in bounded micro-batches, leave via Retract(), and each Poll()
/// processes one window — encode the batch against the session's persistent
/// stable code pools, update the per-rule incremental violation index
/// (blocking key -> member table positions), detect only inside the blocks
/// the window touched, and run repair as a windowed fix-point seeded by the
/// engine's incremental detection path. Created by BigDansing::OpenStream.
///
/// Thread-compatible like RuleEngine: one caller thread at a time; the
/// session parallelizes internally and publishes snapshots to the /streams
/// endpoint, so observability scrapes are safe from any thread.
class StreamSession {
 public:
  ~StreamSession();

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  const std::string& name() const { return name_; }
  const Table& table() const { return *table_; }
  size_t pending_batches() const { return pending_.size(); }

  /// Enqueues rows as micro-batches. Rows with id -1 get fresh sequential
  /// ids; rows carrying ids must not collide with live or queued rows.
  /// Applies the backpressure contract (see StreamOptions).
  Status Append(std::vector<Row> rows);

  /// Convenience Append of plain value tuples (ids assigned).
  Status AppendValues(std::vector<std::vector<Value>> rows);

  /// Removes rows by id: queued rows never enter the table; live rows leave
  /// the table and the violation index immediately, and their former blocks
  /// are re-verified by the next processed window. Unknown ids are ignored
  /// (retracting twice is not an error).
  Status Retract(const std::vector<RowId>& row_ids);

  /// Processes one pending window (the oldest queued batch plus any
  /// retraction dirt). A no-op returning an empty report (iterations == 0)
  /// when nothing is pending.
  Result<StreamWindowReport> Poll();

  /// Drains every pending window, then runs one verification window: a
  /// fix-point run detecting over the whole table, so a drained session
  /// meets the same fix-point contract as one-shot Clean().
  Result<StreamFlushReport> Flush();

  /// Current observable counters (also pushed to the StreamDirectory).
  StreamSessionStats stats() const;

  /// Metrics of the session-owned ExecutionContext: every window's stages
  /// accumulate here (benches read SimulatedWallSeconds from it).
  const Metrics& metrics() const { return session_ctx_->metrics(); }

  /// Per-rule fingerprint of the incremental violation index: a stable
  /// hash over (block key -> sorted member row ids), independent of
  /// insertion order and of pool growth history — append-then-retract
  /// round-trips must reproduce a fresh build's fingerprint bit-exactly.
  std::vector<std::pair<std::string, uint64_t>> IndexFingerprints() const;

  /// Pushes the final snapshot and unregisters from /streams. Idempotent;
  /// the destructor calls it. Further mutations fail InvalidArgument.
  Status Close();

 private:
  friend class BigDansing;

  static constexpr uint32_t kNoBlock = 0xFFFFFFFFu;

  /// The rows sharing one blocking key.
  struct Block {
    uint64_t key = 0;
    /// Table positions, ascending: detection enumerates a block's pairs in
    /// table order, exactly as a full pass over the base table would.
    std::vector<uint32_t> members;
    /// Listed in RuleIndex::dirty.
    bool dirty = false;
  };

  /// Per-rule incremental violation index state.
  struct RuleIndex {
    PhysicalRulePlan plan;
    /// True when the rule blocks (columns or UDF key); false -> the rule
    /// has no index and windows fall back to the engine's incremental
    /// (changed-rows) detection path.
    bool blocked = false;
    /// Code slots forming the key (empty for UDF keys).
    std::vector<size_t> key_slots;
    /// Blocks by id. A block that empties keeps its key and id until its
    /// dirt is cleared (ClearDirty); then both are released and the id goes
    /// to `free_blocks` for reuse by the next new key.
    std::vector<Block> blocks;
    std::unordered_map<uint64_t, uint32_t> block_of_key;
    std::vector<uint32_t> free_blocks;
    /// Table position -> block id; kNoBlock for a null key component.
    std::vector<uint32_t> row_block;
    /// Ids of the blocks the next window re-verifies.
    std::vector<uint32_t> dirty;
    /// Kernel prescreen (null when the rule is not kernelizable).
    std::shared_ptr<const KernelTemplate> tmpl;
    std::unique_ptr<DetectKernel> kernel;
    /// Code slot per kernel slot.
    std::vector<size_t> kernel_slots;
    /// The sorted pool per kernel slot the kernel is bound against; it is
    /// rebound when one of them grows.
    std::vector<std::shared_ptr<const ValuePool>> bound_pools;
  };

  /// One pool-sharing group of code slots.
  struct PoolGroup {
    /// Stable codes: a landed row's codes never change.
    StablePool codes;
    /// Sorted view covering stable codes [0, to_sorted.size()), which the
    /// kernels are bound against; brought up to date only when a kernel
    /// reads this group (SyncSorted).
    std::shared_ptr<const ValuePool> sorted;
    std::vector<uint32_t> to_sorted;
  };

  StreamSession(ExecutionContext* parent, Table* table,
                std::vector<RulePtr> rules, StreamOptions options);

  /// Builds plans, pools, kernels and the index over the existing table
  /// rows (all marked dirty, so the first window cleans the backlog).
  Status Init();

  ExecutionContext* ctx() { return session_ctx_.get(); }

  /// Interns the indexed cells of the rows at `positions` into their
  /// groups' stable pools and stores the codes, first growing the code
  /// arrays and block maps to the table's size. Counts each group that
  /// gained values as one pool growth.
  void EncodeRows(const std::vector<uint32_t>& positions);
  /// Key of the row at `pos` under rule index `ri`; false when the row has
  /// a null key component (the row joins no block).
  bool KeyOf(const RuleIndex& ri, uint32_t pos, uint64_t* key) const;

  /// Files the row at `pos` under its current key in every rule index: a
  /// row in no block joins one, a row whose key changed moves (dirtying
  /// both blocks), and a row whose key stands keeps its membership and
  /// only dirties its block.
  void IndexRow(uint32_t pos);
  /// One rule's moves: join the block of `key` / leave the current block,
  /// dirtying it either way.
  static void JoinBlock(RuleIndex* ri, uint32_t pos, uint64_t key);
  static void LeaveBlock(RuleIndex* ri, uint32_t pos);
  static void MarkDirty(RuleIndex* ri, uint32_t block);
  static void ClearDirty(RuleIndex* ri);

  /// Removes the rows at `removed` (ascending table positions) from the
  /// table, the code arrays and every rule index in one stable pass,
  /// dirtying their former blocks and shifting later positions down.
  void Compact(const std::vector<uint32_t>& removed);

  /// True when a window has anything to do.
  bool HasWork() const;

  /// Brings group `g`'s sorted view up to its stable pool: one GrowPool
  /// merge of the codes added since, composed into the translation.
  const std::shared_ptr<const ValuePool>& SyncSorted(size_t g);
  /// Binds rule `ri`'s kernel, and rebinds it when a sorted pool it reads
  /// grew since the last bind.
  void EnsureKernelBound(RuleIndex* ri);
  /// Kernel prescreen of one block: false only when the compiled kernel
  /// proves no ordered pair in the block can violate — exact, so skipping
  /// the block drops nothing.
  bool BlockMayViolate(const RuleIndex& ri,
                       const std::vector<uint32_t>& members);

  /// Detection source of a window: the dirty blocks of every blocked
  /// rule, the engine's changed-rows path for the others.
  class DirtyBlockSource;

  /// Processes one window: moves the oldest batch (if any) into the table
  /// and runs the windowed detect/repair fix-point over the dirty blocks.
  Result<StreamWindowReport> ProcessWindow();

  /// Runs one fix-point window over `source`, seeded with the pending
  /// changed rows, and folds it into `rep` and the session stats.
  /// `window_timer` started when the window did.
  Status RunWindow(DetectionSource* source, StreamWindowReport* rep,
                   const Stopwatch& window_timer);

  /// Candidate sub-table of rule `ri`'s dirty blocks (kernel-prescreened),
  /// in table row order; clears the rule's dirt.
  Table BuildCandidateTable(RuleIndex* ri);

  /// After-apply hook of every window: re-encodes and re-keys the rows
  /// whose indexed cells a repair changed.
  void Reindex(const std::vector<CellRef>& cells);

  void PushStats(bool closing = false);

  ExecutionContext* parent_ctx_;
  Table* table_;
  std::vector<RulePtr> rules_;
  StreamOptions opts_;
  std::string name_;
  uint64_t directory_id_ = 0;
  bool closed_ = false;

  /// Session-owned execution context: its Metrics carry the session label,
  /// so /stages namespaces this session's stages away from other work.
  std::unique_ptr<ExecutionContext> session_ctx_;

  /// Row id -> position in table_->rows(), for the id-keyed edges (Append's
  /// collision check, Retract, changed-row seeding, repairs' row lookup);
  /// everything inside the index works on positions. Table::FindRowById
  /// degrades to a linear scan once ids stop matching positions, so the
  /// session never uses it.
  std::unordered_map<RowId, size_t> row_pos_;
  RowId next_row_id_ = 0;

  /// Queued micro-batches (rows not yet in the table) and their ids.
  std::deque<std::vector<Row>> pending_;
  std::unordered_set<RowId> pending_ids_;

  /// Indexed base columns (blocking + kernel slots) by code slot, each
  /// slot's pool group, and the reverse map (kNoSlot when not indexed).
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);
  std::vector<size_t> indexed_cols_;
  std::vector<size_t> slot_group_;
  std::vector<size_t> col_slot_;
  std::vector<PoolGroup> groups_;
  /// Stable codes per slot, indexed by table position.
  std::vector<std::vector<uint32_t>> codes_;
  /// Prescreen scratch reused across blocks: translated codes per kernel
  /// slot and the per-slot column pointers a CodeTuple reads.
  std::vector<std::vector<uint32_t>> scratch_codes_;
  std::vector<const uint32_t*> scratch_cols_;

  std::vector<RuleIndex> indexes_;
  /// Rows appended/repaired since the last processed window: the next
  /// window's seed (their blocks re-verify; unindexed rules pair them
  /// against the table).
  std::unordered_set<RowId> pending_changed_;

  /// Freeze bookkeeping shared across all windows of the session (same
  /// oscillation-termination contract as Clean()).
  FreezeState freeze_;

  uint64_t window_seq_ = 0;
  StreamSessionStats stats_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_CORE_STREAM_SESSION_H_
