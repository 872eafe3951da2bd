#ifndef BIGDANSING_CORE_OCJOIN_H_
#define BIGDANSING_CORE_OCJOIN_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "data/row.h"
#include "dataflow/context.h"
#include "rules/rule.h"

namespace bigdansing {

/// Options for the OCJoin enhancer.
struct OCJoinOptions {
  /// Number of range partitions; 0 derives one from the input size and the
  /// context's worker count.
  size_t num_partitions = 0;
  /// Reorder the join conditions by estimated selectivity before running,
  /// putting the most selective condition first (§4.3: "If the selectivity
  /// values for the different inequality conditions are known, OCJoin can
  /// order the different joins accordingly"). Selectivity is estimated by
  /// probing a sample of row pairs; see `selectivity_sample_pairs`.
  bool order_conditions_by_selectivity = false;
  /// Number of sampled row pairs used for the selectivity estimate.
  size_t selectivity_sample_pairs = 512;
};

/// Statistics reported by one OCJoin execution, used by tests and by the
/// Fig 11(c) ablation bench to show how pruning cuts work.
struct OCJoinStats {
  size_t num_partitions = 0;
  size_t partition_pairs_total = 0;
  size_t partition_pairs_after_pruning = 0;
  size_t candidate_pairs = 0;  ///< Pairs satisfying the first condition.
  size_t result_pairs = 0;     ///< Pairs satisfying every condition.
  /// Index (into the caller's condition list) of the condition the join
  /// ran first — != 0 only when selectivity ordering moved one forward.
  size_t primary_condition = 0;
};

/// The join input in code space. Row positions run 0..num_rows-1.
struct OCJoinInput {
  size_t num_rows = 0;
  /// One code array of `num_rows` entries per condition attribute;
  /// OrderingCondition::left_column / right_column index this list. Codes
  /// come from order-preserving ValuePools (code order equals Value order,
  /// ValuePool::kNullCode marks null), and the two columns of one
  /// condition share a pool.
  std::vector<const uint32_t*> columns;
  /// Row id of each position: two positions with equal ids are one tuple
  /// and never pair with each other.
  const RowId* ids = nullptr;
};

/// An ordered pair (t1, t2) of input positions.
using PositionPair = std::pair<uint32_t, uint32_t>;

/// The self-join over ordering comparisons of §4.3 (Algorithm 2), run over
/// dictionary codes:
/// 1. range-partitions the positions on the first condition's primary
///    attribute,
/// 2. sorts each partition by the first condition's two attributes,
/// 3. prunes partition pairs whose [min, max] code ranges cannot satisfy
///    the conditions, and
/// 4. sort-merge joins the surviving pairs in parallel over flat code
///    arrays.
///
/// Returns every ordered position pair (t1, t2) satisfying all conditions,
/// where a condition reads t1.left_column op t2.right_column. Positions
/// with a null code in any condition attribute never join. Because code
/// order equals Value order, every comparison, and so every sort
/// permutation and the output order, matches a run of the same algorithm
/// over the decoded Values. `stats` (optional) receives execution counters.
std::vector<PositionPair> OCJoinPositions(
    ExecutionContext* ctx, const OCJoinInput& input,
    const std::vector<OrderingCondition>& conditions,
    const OCJoinOptions& options, OCJoinStats* stats = nullptr);

}  // namespace bigdansing

#endif  // BIGDANSING_CORE_OCJOIN_H_
