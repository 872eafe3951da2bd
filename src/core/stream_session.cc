#include "core/stream_session.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/hash.h"
#include "common/metrics_registry.h"
#include "common/stopwatch.h"
#include "core/rule_engine.h"

namespace bigdansing {

namespace {

size_t EnvSizeOr(const char* name, size_t fallback) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value > 0) {
      return static_cast<size_t>(value);
    }
  }
  return fallback;
}

/// Default session names ("stream-N") when StreamOptions carries none.
std::atomic<uint64_t>& NameCounter() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}

}  // namespace

size_t StreamOptions::DefaultBatchRows() {
  return EnvSizeOr("BD_STREAM_BATCH_ROWS", 4096);
}

size_t StreamOptions::DefaultMaxInflight() {
  return EnvSizeOr("BD_STREAM_MAX_INFLIGHT", 4);
}

StreamSession::StreamSession(ExecutionContext* parent, Table* table,
                             std::vector<RulePtr> rules, StreamOptions options)
    : parent_ctx_(parent),
      table_(table),
      rules_(std::move(rules)),
      opts_(std::move(options)) {}

StreamSession::~StreamSession() { (void)Close(); }

Status StreamSession::Init() {
  if (table_ == nullptr) {
    return Status::InvalidArgument("OpenStream: table must not be null");
  }
  if (rules_.empty()) {
    return Status::InvalidArgument("OpenStream: no rules given");
  }
  if (opts_.batch_rows == 0) opts_.batch_rows = StreamOptions::DefaultBatchRows();
  if (opts_.max_inflight_batches == 0) {
    opts_.max_inflight_batches = StreamOptions::DefaultMaxInflight();
  }
  name_ = opts_.session_name.empty()
              ? "stream-" + std::to_string(NameCounter().fetch_add(1) + 1)
              : opts_.session_name;

  // The session's own context: same logical cluster as the parent, but its
  // Metrics carry the session label so /stages attributes this session's
  // stages (and SimulatedWallSeconds isolates its cost for the benches).
  session_ctx_ = std::make_unique<ExecutionContext>(parent_ctx_->num_workers(),
                                                    parent_ctx_->backend());
  session_ctx_->set_morsel_rows(parent_ctx_->morsel_rows());
  session_ctx_->set_kernels_enabled(parent_ctx_->kernels_enabled());
  session_ctx_->set_fault_policy(parent_ctx_->fault_policy());
  session_ctx_->metrics().set_label(name_);

  // Physical plans once per session; the per-window engine calls rebuild
  // their own, but the session needs the blocking layout and detect schema
  // to maintain its index.
  indexes_.reserve(rules_.size());
  for (const auto& rule : rules_) {
    auto plan = BuildPhysicalPlan(rule, table_->schema(), opts_.clean.planner);
    if (!plan.ok()) return plan.status();
    RuleIndex ri;
    ri.plan = std::move(*plan);
    const bool has_key =
        ri.plan.block_key_fn || !ri.plan.blocking_columns.empty();
    // Arity-1 rules never pair within blocks, and kSingle plans ignore
    // blocking — both take the engine's changed-rows path instead.
    ri.blocked = has_key && rule->arity() == 2 &&
                 ri.plan.strategy != IterateStrategy::kSingle;
    indexes_.push_back(std::move(ri));
  }

  // Indexed base columns: every blocking key column plus every kernel slot,
  // one code slot each.
  auto base_col = [](const RuleIndex& ri, size_t c) {
    return ri.plan.scope_columns.empty() ? c : ri.plan.scope_columns[c];
  };
  col_slot_.assign(table_->schema().num_attributes(), kNoSlot);
  auto slot_of = [this](size_t col) {
    if (col_slot_[col] == kNoSlot) {
      col_slot_[col] = indexed_cols_.size();
      indexed_cols_.push_back(col);
    }
    return col_slot_[col];
  };
  for (RuleIndex& ri : indexes_) {
    if (!ri.blocked) continue;
    if (!ri.plan.block_key_fn) {
      for (size_t c : ri.plan.blocking_columns) {
        ri.key_slots.push_back(slot_of(base_col(ri, c)));
      }
      if (session_ctx_->kernels_enabled()) {
        ri.tmpl = KernelRegistry::Instance().Compile(*ri.plan.rule,
                                                     ri.plan.detect_schema);
      }
    }
    if (!ri.tmpl) continue;
    for (size_t c : ri.tmpl->columns()) {
      ri.kernel_slots.push_back(slot_of(base_col(ri, c)));
    }
  }

  // Pool-sharing groups (union-find over slots): kernels comparing codes
  // across two columns need those columns in one pool.
  std::vector<size_t> parent(indexed_cols_.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&parent](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const RuleIndex& ri : indexes_) {
    if (!ri.tmpl) continue;
    for (const auto& group : ri.tmpl->shared_groups()) {
      for (size_t i = 1; i < group.size(); ++i) {
        parent[find(col_slot_[base_col(ri, group[0])])] =
            find(col_slot_[base_col(ri, group[i])]);
      }
    }
  }
  slot_group_.resize(indexed_cols_.size());
  std::unordered_map<size_t, size_t> root_to_group;
  for (size_t s = 0; s < indexed_cols_.size(); ++s) {
    auto [it, fresh] = root_to_group.emplace(find(s), groups_.size());
    if (fresh) {
      groups_.emplace_back();
      groups_.back().sorted =
          std::make_shared<const ValuePool>(std::vector<Value>());
    }
    slot_group_[s] = it->second;
  }
  codes_.resize(indexed_cols_.size());

  // Index the existing rows and mark their blocks dirty, so the first
  // processed window cleans the backlog (OpenStream + Flush ≈ Clean).
  std::vector<uint32_t> existing(table_->num_rows());
  for (size_t pos = 0; pos < table_->num_rows(); ++pos) {
    const Row& row = table_->row(pos);
    if (!row_pos_.emplace(row.id(), pos).second) {
      return Status::InvalidArgument(
          "OpenStream: duplicate row id " + std::to_string(row.id()));
    }
    next_row_id_ = std::max(next_row_id_, row.id() + 1);
    existing[pos] = static_cast<uint32_t>(pos);
  }
  EncodeRows(existing);
  for (uint32_t pos : existing) {
    IndexRow(pos);
    pending_changed_.insert(table_->row(pos).id());
  }

  directory_id_ = StreamDirectory::Instance().Register(name_);
  stats_.id = directory_id_;
  stats_.name = name_;
  stats_.rules = rules_.size();
  PushStats();
  return Status::OK();
}

void StreamSession::EncodeRows(const std::vector<uint32_t>& positions) {
  const size_t rows = table_->num_rows();
  for (RuleIndex& ri : indexes_) {
    if (ri.blocked) ri.row_block.resize(rows, kNoBlock);
  }
  std::vector<size_t> before(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    before[g] = groups_[g].codes.size();
  }
  for (size_t s = 0; s < indexed_cols_.size(); ++s) {
    std::vector<uint32_t>& codes = codes_[s];
    codes.resize(rows, ValuePool::kNullCode);
    StablePool& pool = groups_[slot_group_[s]].codes;
    const size_t col = indexed_cols_[s];
    for (uint32_t pos : positions) {
      codes[pos] = pool.Intern(table_->row(pos).value(col));
    }
  }
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].codes.size() > before[g]) ++stats_.pool_growths;
  }
}

bool StreamSession::KeyOf(const RuleIndex& ri, uint32_t pos,
                          uint64_t* key) const {
  if (ri.plan.block_key_fn) {
    // UDF keys see the scoped row, exactly as the engine's blocking stage.
    const Row& row = table_->row(pos);
    Value v = ri.plan.scope_columns.empty()
                  ? ri.plan.block_key_fn(ri.plan.detect_schema, row)
                  : ri.plan.block_key_fn(
                        ri.plan.detect_schema,
                        ScopeProject(row, ri.plan.scope_columns));
    if (v.is_null()) return false;
    *key = v.Hash();
    return true;
  }
  // Pool-hash path: hash(code) is the precomputed Value::Hash, so the key
  // is the engine's ComputeBlockKey rebuilt from dictionary codes.
  uint64_t h = 0x42D;
  for (size_t slot : ri.key_slots) {
    const uint32_t code = codes_[slot][pos];
    if (code == ValuePool::kNullCode) return false;
    h = StableHashUint64(h ^ groups_[slot_group_[slot]].codes.hash(code));
  }
  *key = h;
  return true;
}

void StreamSession::MarkDirty(RuleIndex* ri, uint32_t block) {
  Block& b = ri->blocks[block];
  if (b.dirty) return;
  b.dirty = true;
  ri->dirty.push_back(block);
}

void StreamSession::ClearDirty(RuleIndex* ri) {
  for (uint32_t id : ri->dirty) {
    Block& block = ri->blocks[id];
    block.dirty = false;
    if (block.members.empty()) {
      // Every emptied block passes through the dirty list, so this is where
      // its key and storage are reclaimed; the id is reused by a later key.
      ri->block_of_key.erase(block.key);
      std::vector<uint32_t>().swap(block.members);
      ri->free_blocks.push_back(id);
    }
  }
  ri->dirty.clear();
}

void StreamSession::JoinBlock(RuleIndex* ri, uint32_t pos, uint64_t key) {
  uint32_t next = static_cast<uint32_t>(ri->blocks.size());
  if (!ri->free_blocks.empty()) next = ri->free_blocks.back();
  auto [it, fresh] = ri->block_of_key.emplace(key, next);
  if (fresh) {
    if (next == ri->blocks.size()) {
      ri->blocks.push_back(Block{key, {}, false});
    } else {
      ri->free_blocks.pop_back();
      ri->blocks[next].key = key;
    }
  }
  std::vector<uint32_t>& members = ri->blocks[it->second].members;
  // Landed rows append at the table's end; only a repaired row moving
  // between blocks lands mid-block.
  if (members.empty() || members.back() < pos) {
    members.push_back(pos);
  } else {
    members.insert(std::lower_bound(members.begin(), members.end(), pos),
                   pos);
  }
  ri->row_block[pos] = it->second;
  MarkDirty(ri, it->second);
}

void StreamSession::LeaveBlock(RuleIndex* ri, uint32_t pos) {
  const uint32_t block = ri->row_block[pos];
  std::vector<uint32_t>& members = ri->blocks[block].members;
  members.erase(std::lower_bound(members.begin(), members.end(), pos));
  ri->row_block[pos] = kNoBlock;
  MarkDirty(ri, block);
}

void StreamSession::IndexRow(uint32_t pos) {
  for (RuleIndex& ri : indexes_) {
    if (!ri.blocked) continue;
    uint64_t key = 0;
    const bool keyed = KeyOf(ri, pos, &key);
    const uint32_t block = ri.row_block[pos];
    if (block != kNoBlock) {
      if (keyed && ri.blocks[block].key == key) {
        // Unchanged key: the membership stands; re-verify the block.
        MarkDirty(&ri, block);
        continue;
      }
      LeaveBlock(&ri, pos);
    }
    if (keyed) JoinBlock(&ri, pos, key);
  }
}

Status StreamSession::Append(std::vector<Row> rows) {
  if (closed_) return Status::InvalidArgument("stream session is closed");
  const size_t width = table_->schema().num_attributes();
  std::unordered_set<RowId> batch_ids;
  for (auto& row : rows) {
    if (row.size() != width) {
      return Status::InvalidArgument(
          "Append: row width " + std::to_string(row.size()) +
          " does not match schema width " + std::to_string(width));
    }
    if (row.id() < 0) row.set_id(next_row_id_++);
    if (row_pos_.count(row.id()) > 0 || pending_ids_.count(row.id()) > 0 ||
        !batch_ids.insert(row.id()).second) {
      return Status::InvalidArgument("Append: duplicate row id " +
                                     std::to_string(row.id()));
    }
    next_row_id_ = std::max(next_row_id_, row.id() + 1);
  }

  const size_t new_batches =
      (rows.size() + opts_.batch_rows - 1) / opts_.batch_rows;
  if (!opts_.block_on_backpressure &&
      pending_.size() + new_batches > opts_.max_inflight_batches) {
    ++stats_.backpressure_rejections;
    MetricsRegistry::Instance()
        .GetCounter("stream.backpressure_rejections")
        .Add(1);
    PushStats();
    return Status::ResourceExhausted(
        "stream session " + name_ + ": in-flight window full (" +
        std::to_string(pending_.size()) + " batches queued, bound " +
        std::to_string(opts_.max_inflight_batches) + "); Poll() and retry");
  }

  for (size_t begin = 0; begin < rows.size(); begin += opts_.batch_rows) {
    const size_t end = std::min(begin + opts_.batch_rows, rows.size());
    std::vector<Row> batch(std::make_move_iterator(rows.begin() + begin),
                           std::make_move_iterator(rows.begin() + end));
    for (const auto& row : batch) pending_ids_.insert(row.id());
    stats_.appended_rows += batch.size();
    pending_.push_back(std::move(batch));
    ++stats_.batches_enqueued;
  }

  // Blocking backpressure: the appender's thread drains windows until the
  // queue fits the bound again.
  while (pending_.size() > opts_.max_inflight_batches) {
    ++stats_.backpressure_waits;
    MetricsRegistry::Instance().GetCounter("stream.backpressure_waits").Add(1);
    auto drained = ProcessWindow();
    if (!drained.ok()) return drained.status();
  }
  PushStats();
  return Status::OK();
}

Status StreamSession::AppendValues(std::vector<std::vector<Value>> rows) {
  std::vector<Row> out;
  out.reserve(rows.size());
  for (auto& values : rows) out.emplace_back(-1, std::move(values));
  return Append(std::move(out));
}

Status StreamSession::Retract(const std::vector<RowId>& row_ids) {
  if (closed_) return Status::InvalidArgument("stream session is closed");
  std::vector<uint32_t> removed;
  for (RowId id : row_ids) {
    if (pending_ids_.count(id) > 0) {
      // Still queued: the row never reaches the table.
      for (auto& batch : pending_) {
        for (auto it = batch.begin(); it != batch.end(); ++it) {
          if (it->id() == id) {
            batch.erase(it);
            break;
          }
        }
      }
      pending_ids_.erase(id);
      ++stats_.retracted_rows;
      continue;
    }
    auto pos = row_pos_.find(id);
    if (pos == row_pos_.end()) continue;  // unknown/already retracted
    removed.push_back(static_cast<uint32_t>(pos->second));
    row_pos_.erase(pos);
    pending_changed_.erase(id);
    ++stats_.retracted_rows;
  }
  if (!removed.empty()) {
    std::sort(removed.begin(), removed.end());
    Compact(removed);
  }
  PushStats();
  return Status::OK();
}

namespace {

constexpr uint32_t kGone = 0xFFFFFFFFu;

/// Stable in-place compaction: moves v[i] to v[remap[i]], dropping the
/// entries whose remap is kGone (remap[i] <= i, so nothing is overwritten
/// before it moves).
template <typename T>
void CompactByRemap(std::vector<T>* v, const std::vector<uint32_t>& remap,
                    size_t kept) {
  for (size_t i = 0; i < v->size(); ++i) {
    if (remap[i] != kGone && remap[i] != i) (*v)[remap[i]] = std::move((*v)[i]);
  }
  v->resize(kept);
}

}  // namespace

void StreamSession::Compact(const std::vector<uint32_t>& removed) {
  const size_t rows = table_->num_rows();
  std::vector<uint32_t> remap(rows);
  uint32_t kept = 0;
  for (size_t pos = 0, r = 0; pos < rows; ++pos) {
    if (r < removed.size() && removed[r] == pos) {
      remap[pos] = kGone;
      ++r;
    } else {
      remap[pos] = kept++;
    }
  }
  const uint32_t first = removed.front();
  for (RuleIndex& ri : indexes_) {
    if (!ri.blocked) continue;
    for (uint32_t pos : removed) {
      if (ri.row_block[pos] != kNoBlock) MarkDirty(&ri, ri.row_block[pos]);
    }
    for (Block& block : ri.blocks) {
      // Blocks wholly before the first removed row keep their positions.
      if (block.members.empty() || block.members.back() < first) continue;
      size_t out = 0;
      for (uint32_t pos : block.members) {
        if (remap[pos] != kGone) block.members[out++] = remap[pos];
      }
      block.members.resize(out);
    }
    CompactByRemap(&ri.row_block, remap, kept);
  }
  for (auto& codes : codes_) CompactByRemap(&codes, remap, kept);
  auto& table_rows = table_->mutable_rows();
  CompactByRemap(&table_rows, remap, kept);
  for (size_t pos = first; pos < table_rows.size(); ++pos) {
    row_pos_[table_rows[pos].id()] = pos;
  }
}

bool StreamSession::HasWork() const {
  if (!pending_.empty() || !pending_changed_.empty()) return true;
  for (const auto& ri : indexes_) {
    if (!ri.dirty.empty()) return true;
  }
  return false;
}

const std::shared_ptr<const ValuePool>& StreamSession::SyncSorted(size_t g) {
  PoolGroup& group = groups_[g];
  const size_t synced = group.to_sorted.size();
  if (synced == group.codes.size()) return group.sorted;
  std::vector<Value> fresh;
  fresh.reserve(group.codes.size() - synced);
  for (size_t c = synced; c < group.codes.size(); ++c) {
    fresh.push_back(group.codes.value(static_cast<uint32_t>(c)));
  }
  std::vector<uint32_t> old_to_new;
  group.sorted = GrowPool(group.sorted, fresh, &old_to_new);
  for (uint32_t& code : group.to_sorted) code = old_to_new[code];
  for (const Value& v : fresh) {
    group.to_sorted.push_back(group.sorted->CodeOf(v));
  }
  return group.sorted;
}

void StreamSession::EnsureKernelBound(RuleIndex* ri) {
  if (!ri->tmpl) return;
  const size_t slots = ri->kernel_slots.size();
  bool stale = ri->kernel == nullptr;
  ri->bound_pools.resize(slots);
  for (size_t s = 0; s < slots; ++s) {
    const auto& pool = SyncSorted(slot_group_[ri->kernel_slots[s]]);
    if (ri->bound_pools[s] != pool) {
      ri->bound_pools[s] = pool;
      stale = true;
    }
  }
  if (!stale) return;
  std::vector<const ValuePool*> pools;
  pools.reserve(slots);
  for (const auto& pool : ri->bound_pools) pools.push_back(pool.get());
  const bool rebind = ri->kernel != nullptr;
  ri->kernel = ri->tmpl->Bind(pools);
  if (rebind) {
    ++stats_.kernel_rebinds;
    MetricsRegistry::Instance().GetCounter("stream.kernel_rebinds").Add(1);
  }
}

bool StreamSession::BlockMayViolate(const RuleIndex& ri,
                                    const std::vector<uint32_t>& members) {
  if (!ri.kernel) return true;
  const size_t n = members.size();
  const size_t slots = ri.kernel_slots.size();
  scratch_cols_.resize(slots);
  if (scratch_codes_.size() < slots) scratch_codes_.resize(slots);
  // The kernel is bound against the sorted pools: gather the block's codes
  // through the stable -> sorted translation.
  for (size_t s = 0; s < slots; ++s) {
    const size_t slot = ri.kernel_slots[s];
    const std::vector<uint32_t>& to_sorted =
        groups_[slot_group_[slot]].to_sorted;
    const std::vector<uint32_t>& codes = codes_[slot];
    std::vector<uint32_t>& out = scratch_codes_[s];
    out.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t code = codes[members[i]];
      out[i] = code == ValuePool::kNullCode ? code : to_sorted[code];
    }
    scratch_cols_[s] = out.data();
  }
  const bool symmetric = ri.plan.rule->IsSymmetric();
  CodeTuple a{scratch_cols_.data(), 0};
  CodeTuple b{scratch_cols_.data(), 0};
  for (size_t i = 0; i < n; ++i) {
    a.row = i;
    for (size_t j = i + 1; j < n; ++j) {
      b.row = j;
      if (ri.kernel->Matches(a, b)) return true;
      if (!symmetric && ri.kernel->Matches(b, a)) return true;
    }
  }
  return false;
}

Table StreamSession::BuildCandidateTable(RuleIndex* ri) {
  EnsureKernelBound(ri);
  std::vector<uint32_t> positions;
  for (uint32_t id : ri->dirty) {
    const std::vector<uint32_t>& members = ri->blocks[id].members;
    if (members.size() < 2 || !BlockMayViolate(*ri, members)) continue;
    positions.insert(positions.end(), members.begin(), members.end());
  }
  ClearDirty(ri);
  // Blocks are disjoint and each ascends; merge them into table order.
  std::sort(positions.begin(), positions.end());
  Table sub(table_->schema());
  for (uint32_t pos : positions) sub.AppendRowWithId(table_->row(pos));
  return sub;
}

void StreamSession::Reindex(const std::vector<CellRef>& cells) {
  std::vector<uint32_t> touched;
  for (const CellRef& cell : cells) {
    if (col_slot_[cell.column] == kNoSlot) continue;
    auto pos = row_pos_.find(cell.row_id);
    if (pos != row_pos_.end()) {
      touched.push_back(static_cast<uint32_t>(pos->second));
    }
  }
  if (touched.empty()) return;
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  // Repaired values may be new to the pools (rule constants): intern them,
  // then re-key the touched rows.
  EncodeRows(touched);
  for (uint32_t pos : touched) IndexRow(pos);
}

class StreamSession::DirtyBlockSource : public DetectionSource {
 public:
  DirtyBlockSource(StreamSession* session, StreamWindowReport* rep)
      : s_(*session),
        rep_(rep),
        engine_(session->ctx(), session->opts_.clean.planner) {}

  Result<std::vector<DetectionResult>> Detect(
      size_t, const std::unordered_set<RowId>& changed) override {
    // The changed rows re-verify in their current blocks: on the first
    // pass the window's seed rows, later the last repair's rows (Reindex
    // already dirtied the blocks rows moved between).
    for (RowId id : changed) {
      auto pos = s_.row_pos_.find(id);
      if (pos == s_.row_pos_.end()) continue;
      for (RuleIndex& ri : s_.indexes_) {
        if (!ri.blocked) continue;
        const uint32_t block = ri.row_block[pos->second];
        if (block != kNoBlock) MarkDirty(&ri, block);
      }
    }
    std::vector<DetectionResult> out(s_.rules_.size());
    for (size_t r = 0; r < s_.rules_.size(); ++r) {
      RuleIndex& ri = s_.indexes_[r];
      DetectRequest req;
      req.rules = {s_.rules_[r]};
      Table sub(s_.table_->schema());
      if (ri.blocked) {
        if (ri.dirty.empty()) continue;
        rep_->dirty_blocks += ri.dirty.size();
        sub = s_.BuildCandidateTable(&ri);
        rep_->candidate_rows += sub.num_rows();
        if (sub.num_rows() < 2) continue;
        req.table = &sub;
      } else {
        if (changed.empty()) continue;
        req.table = s_.table_;
        req.changed_rows = &changed;
      }
      auto res = engine_.Detect(req);
      if (!res.ok()) return res.status();
      out[r] = std::move(res->front());
    }
    return out;
  }

 private:
  StreamSession& s_;
  StreamWindowReport* rep_;
  RuleEngine engine_;
};

Result<StreamWindowReport> StreamSession::ProcessWindow() {
  Stopwatch window_timer;
  StreamWindowReport rep;
  rep.window_id = ++window_seq_;

  // Land the oldest micro-batch: append, encode against the session's
  // stable pools, join the violation index (marking the joined blocks
  // dirty).
  if (!pending_.empty()) {
    std::vector<Row> batch = std::move(pending_.front());
    pending_.pop_front();
    ++stats_.batches_processed;
    rep.appended_rows = batch.size();
    std::vector<uint32_t> fresh;
    fresh.reserve(batch.size());
    for (auto& row : batch) {
      pending_ids_.erase(row.id());
      pending_changed_.insert(row.id());
      fresh.push_back(static_cast<uint32_t>(table_->num_rows()));
      row_pos_[row.id()] = table_->num_rows();
      table_->AppendRowWithId(std::move(row));
    }
    EncodeRows(fresh);
    for (uint32_t pos : fresh) IndexRow(pos);
  }

  DirtyBlockSource source(this, &rep);
  BIGDANSING_RETURN_NOT_OK(RunWindow(&source, &rep, window_timer));
  return rep;
}

Status StreamSession::RunWindow(DetectionSource* source,
                                StreamWindowReport* rep,
                                const Stopwatch& window_timer) {
  FixPointSetup setup;
  setup.job = "stream:window";
  setup.session = name_;
  setup.freeze = &freeze_;
  setup.find_row = [this](RowId id) -> Row* {
    auto pos = row_pos_.find(id);  // Absent: retracted under the repair.
    return pos == row_pos_.end() ? nullptr : &table_->mutable_row(pos->second);
  };
  setup.after_apply = [this](const std::vector<CellRef>& cells) {
    Reindex(cells);
  };
  std::unordered_set<RowId> changed = std::move(pending_changed_);
  pending_changed_.clear();
  auto run = FixPointDriver(ctx(), table_, rules_, opts_.clean,
                            std::move(setup))
                 .Run(source, &changed);
  if (!run.ok()) return run.status();

  const CleanReport& report = run->report;
  rep->iterations = report.num_iterations();
  rep->converged = report.converged;
  rep->detect_seconds = report.total_detect_seconds;
  rep->repair_seconds = report.total_repair_seconds;
  for (const auto& it : report.iterations) {
    rep->violations += it.violations;
    rep->applied_fixes += it.applied_fixes;
  }
  if (rep->converged) {
    // A fix point leaves no dirt behind.
    for (auto& ri : indexes_) ClearDirty(&ri);
    pending_changed_.clear();
    ++stats_.windows_converged;
  } else {
    // Iteration cap: carry the residual dirt into the next window so the
    // fix-point resumes instead of silently dropping it.
    pending_changed_.insert(changed.begin(), changed.end());
  }

  const double window_seconds = window_timer.ElapsedSeconds();
  stats_.violations_found += rep->violations;
  stats_.fixes_applied += rep->applied_fixes;
  stats_.unresolved_violations += run->unresolved;
  stats_.last_window_seconds = window_seconds;
  stats_.max_window_seconds = std::max(stats_.max_window_seconds,
                                       window_seconds);
  stats_.total_detect_seconds += rep->detect_seconds;
  stats_.total_repair_seconds += rep->repair_seconds;
  MetricsRegistry::Instance().GetCounter("stream.windows_processed").Add(1);
  PushStats();
  return Status::OK();
}

Result<StreamWindowReport> StreamSession::Poll() {
  if (closed_) return Status::InvalidArgument("stream session is closed");
  if (!HasWork()) {
    StreamWindowReport rep;
    rep.converged = true;
    return rep;
  }
  return ProcessWindow();
}

Result<StreamFlushReport> StreamSession::Flush() {
  if (closed_) return Status::InvalidArgument("stream session is closed");
  StreamFlushReport out;
  auto fold = [&out](StreamWindowReport rep) {
    out.total_violations += rep.violations;
    out.total_applied_fixes += rep.applied_fixes;
    out.converged = rep.converged;
    out.windows.push_back(std::move(rep));
  };
  // Freeze bookkeeping bounds this drain exactly as it bounds Clean():
  // every non-converged window applies at least one real change, and
  // oscillating cells freeze after freeze_after_updates rounds.
  while (HasWork()) {
    auto rep = ProcessWindow();
    if (!rep.ok()) return rep.status();
    fold(std::move(*rep));
  }

  // Verification window: detection over the whole table — the pass Clean()
  // ends with — so a drained session certifies convergence against every
  // rule at once.
  Stopwatch window_timer;
  StreamWindowReport verify;
  verify.window_id = ++window_seq_;
  verify.candidate_rows = table_->num_rows();
  TableSource source(ctx(), opts_.clean.planner, table_, rules_,
                     /*incremental=*/false);
  BIGDANSING_RETURN_NOT_OK(RunWindow(&source, &verify, window_timer));
  fold(std::move(verify));
  return out;
}

StreamSessionStats StreamSession::stats() const {
  StreamSessionStats s = stats_;
  s.rows = table_ != nullptr ? table_->num_rows() : 0;
  s.pending_batches = pending_.size();
  s.open = !closed_;
  size_t blocks = 0;
  size_t rows = 0;
  for (const auto& ri : indexes_) {
    for (const Block& block : ri.blocks) {
      blocks += block.members.empty() ? 0 : 1;
      rows += block.members.size();
    }
  }
  s.index_blocks = blocks;
  s.index_rows = rows;
  size_t pool_values = 0;
  for (const auto& group : groups_) pool_values += group.codes.size();
  s.pool_values = pool_values;
  return s;
}

std::vector<std::pair<std::string, uint64_t>>
StreamSession::IndexFingerprints() const {
  // Stable over (sorted block key -> sorted member ids): identical content
  // must fingerprint identically whatever the append/retract history was.
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(indexes_.size());
  for (const auto& ri : indexes_) {
    std::vector<std::pair<uint64_t, uint32_t>> keys;  // (key, block id)
    for (uint32_t b = 0; b < ri.blocks.size(); ++b) {
      if (!ri.blocks[b].members.empty()) keys.emplace_back(ri.blocks[b].key, b);
    }
    std::sort(keys.begin(), keys.end());
    uint64_t h = 0x5EED;
    std::vector<RowId> ids;
    for (const auto& [key, block] : keys) {
      h = StableHashUint64(h ^ key);
      ids.clear();
      for (uint32_t pos : ri.blocks[block].members) {
        ids.push_back(table_->row(pos).id());
      }
      std::sort(ids.begin(), ids.end());
      for (RowId id : ids) {
        h = StableHashUint64(h ^ static_cast<uint64_t>(id));
      }
    }
    out.emplace_back(ri.plan.rule->name(), h);
  }
  return out;
}

void StreamSession::PushStats(bool closing) {
  StreamSessionStats s = stats();
  if (closing) s.open = false;
  StreamDirectory::Instance().Update(s);
}

Status StreamSession::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  PushStats(/*closing=*/true);
  StreamDirectory::Instance().Close(directory_id_);
  return Status::OK();
}

}  // namespace bigdansing
