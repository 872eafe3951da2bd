#ifndef BIGDANSING_DATA_PROFILE_H_
#define BIGDANSING_DATA_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/table.h"
#include "data/value.h"
#include "dataflow/context.h"

namespace bigdansing {

/// One frequent value of a column with its occurrence count.
struct TopValue {
  Value value;
  uint64_t count = 0;
};

/// Distribution statistics of one table column. `distinct`, `min` and `max`
/// cover non-null values only; `min`/`max` are null Values when the column
/// has no non-null cell. `top` is ordered by count descending, ties broken
/// by Value order ascending, so the rendering is deterministic.
struct ColumnProfile {
  std::string name;
  size_t index = 0;
  uint64_t rows = 0;
  uint64_t nulls = 0;
  uint64_t distinct = 0;
  Value min;
  Value max;
  std::vector<TopValue> top;

  double null_rate() const {
    return rows == 0 ? 0.0
                     : static_cast<double>(nulls) / static_cast<double>(rows);
  }

  /// One strict-JSON object.
  std::string ToJson() const;
};

/// A full table quality snapshot: per-column profiles plus the row count.
struct TableProfile {
  uint64_t rows = 0;
  std::vector<ColumnProfile> columns;

  /// Profile of the column named `name`, or null when absent.
  const ColumnProfile* Find(const std::string& name) const;

  /// One strict-JSON object ({"rows":N,"columns":[...]}).
  std::string ToJson() const;
};

/// How many frequent values a column profile keeps.
inline constexpr size_t kProfileTopK = 5;

/// Tables with fewer rows than this are profiled on the driver with no
/// stage dispatch: below it the dispatch costs more than the counting.
inline constexpr size_t kProfileStageMinRows = 4096;

/// Profiles every column of `table`. From `kProfileStageMinRows` rows on,
/// `EncodeColumns` builds each column's sorted pool and codes in its two
/// stages, then the driver counts codes (published to the sampling profiler
/// as "profile:histogram"), and distinct, min and max come from the pools;
/// smaller tables are counted by Value on the driver. Both give the same
/// profile. A null `ctx` returns the name-only shell.
TableProfile ProfileTable(ExecutionContext* ctx, const Table& table);

}  // namespace bigdansing

#endif  // BIGDANSING_DATA_PROFILE_H_
