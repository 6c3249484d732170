/**
 * @file
 * Deterministic partitioning of a sweep grid across shards.
 *
 * A ShardSpec names one shard of N ("i/N" addressing); a ShardPlan
 * maps every shard to the set of flat grid indices it owns. The
 * assignment is a pure function of (grid size, shard count, layout) -
 * never of execution timing or host identity - so any process
 * anywhere can compute which points shard i runs, and the union over
 * all shards is exactly [0, gridSize) with no overlap.
 *
 * Two layouts are offered:
 *  - Contiguous: balanced consecutive ranges (shard i of N gets
 *    ~gridSize/N adjacent indices; the first gridSize%N shards get
 *    one extra). Best when neighboring grid points cost similar time.
 *  - Strided: shard i gets indices i, i+N, i+2N, ... Best when cost
 *    varies systematically along the grid (e.g. the p axis), since
 *    every shard samples the whole range.
 *
 * Per-point seed derivation lives in the point configs themselves
 * (each materialized point carries its own config.seed), so a shard
 * computes exactly the replications the single-process run would -
 * the partition only chooses *where* a point runs, never *what* it
 * computes.
 */

#ifndef SBN_SHARD_PLAN_HH
#define SBN_SHARD_PLAN_HH

#include <cstddef>
#include <string>
#include <vector>

namespace sbn {

/** How a ShardPlan lays grid indices onto shards. */
enum class ShardLayout
{
    Contiguous,
    Strided,
};

/** Parse "contiguous" / "strided" into @p out; false with a message
 *  in @p error on anything else. */
bool parseShardLayout(const std::string &text, ShardLayout &out,
                      std::string &error);

/** Canonical name of a layout ("contiguous" / "strided"). */
const char *shardLayoutName(ShardLayout layout);

/** One shard of N, in "i/N" addressing (i is 0-based, i < N). */
struct ShardSpec
{
    std::size_t index = 0;
    std::size_t count = 1;

    /**
     * Parse the "i/N" form (e.g. "2/4"). Fatal with a diagnostic on
     * malformed text, N == 0 or i >= N.
     */
    static ShardSpec parse(const std::string &text);

    /** Render back to the canonical "i/N" form. */
    std::string toString() const;
};

/**
 * The full deterministic assignment of a gridSize-point sweep to
 * shardCount shards under a layout.
 */
class ShardPlan
{
  public:
    /** @param shard_count number of shards (>= 1). */
    ShardPlan(std::size_t grid_size, std::size_t shard_count,
              ShardLayout layout = ShardLayout::Contiguous);

    std::size_t gridSize() const { return gridSize_; }
    std::size_t shardCount() const { return shardCount_; }
    ShardLayout layout() const { return layout_; }

    /** Number of points shard @p shard owns. */
    std::size_t shardSize(std::size_t shard) const;

    /**
     * The flat grid indices shard @p shard owns, strictly increasing:
     * the subset runShardPoints and runSweepPoints take.
     */
    std::vector<std::size_t> indices(std::size_t shard) const;

    /** Which shard owns flat index @p index. */
    std::size_t owner(std::size_t index) const;

  private:
    std::size_t gridSize_;
    std::size_t shardCount_;
    ShardLayout layout_;
};

} // namespace sbn

#endif // SBN_SHARD_PLAN_HH
