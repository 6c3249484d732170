#include "shard/plan.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "util/logging.hh"

namespace sbn {

bool
parseShardLayout(const std::string &text, ShardLayout &out,
                 std::string &error)
{
    if (text == "contiguous")
        out = ShardLayout::Contiguous;
    else if (text == "strided")
        out = ShardLayout::Strided;
    else
        return failWith(error, "shard layout '", text,
                        "' is not recognized (expected 'contiguous' "
                        "or 'strided')");
    return true;
}

const char *
shardLayoutName(ShardLayout layout)
{
    return layout == ShardLayout::Contiguous ? "contiguous" : "strided";
}

ShardSpec
ShardSpec::parse(const std::string &text)
{
    const auto bad = [&]() -> ShardSpec {
        sbn_fatal("shard spec '", text,
                  "' is malformed (expected 'i/N' with 0 <= i < N, "
                  "e.g. '0/4')");
    };

    const std::size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size())
        return bad();

    const auto parseField = [&](const std::string &field,
                                std::size_t &out) {
        errno = 0;
        char *end = nullptr;
        const unsigned long long value =
            std::strtoull(field.c_str(), &end, 10);
        if (end == field.c_str() || *end != '\0' || errno == ERANGE ||
            field[0] == '-' || field[0] == '+')
            return false;
        out = static_cast<std::size_t>(value);
        return true;
    };

    ShardSpec spec;
    if (!parseField(text.substr(0, slash), spec.index) ||
        !parseField(text.substr(slash + 1), spec.count))
        return bad();
    if (spec.count == 0)
        sbn_fatal("shard spec '", text, "': shard count must be >= 1");
    if (spec.index >= spec.count)
        sbn_fatal("shard spec '", text, "': shard index ", spec.index,
                  " is out of range for ", spec.count, " shard(s)");
    return spec;
}

std::string
ShardSpec::toString() const
{
    return std::to_string(index) + "/" + std::to_string(count);
}

ShardPlan::ShardPlan(std::size_t grid_size, std::size_t shard_count,
                     ShardLayout layout)
    : gridSize_(grid_size), shardCount_(shard_count), layout_(layout)
{
    sbn_assert(shardCount_ >= 1, "a plan needs at least one shard");
}

std::size_t
ShardPlan::shardSize(std::size_t shard) const
{
    sbn_assert(shard < shardCount_, "shard index out of range");
    const std::size_t base = gridSize_ / shardCount_;
    const std::size_t extra = gridSize_ % shardCount_;
    // Both layouts spread the remainder over the first `extra`
    // shards, so sizes match across layouts for the same (size, N).
    return base + (shard < extra ? 1 : 0);
}

std::vector<std::size_t>
ShardPlan::indices(std::size_t shard) const
{
    sbn_assert(shard < shardCount_, "shard index out of range");
    std::vector<std::size_t> out;
    out.reserve(shardSize(shard));
    if (layout_ == ShardLayout::Contiguous) {
        const std::size_t base = gridSize_ / shardCount_;
        const std::size_t extra = gridSize_ % shardCount_;
        const std::size_t begin =
            shard * base + std::min(shard, extra);
        const std::size_t end = begin + shardSize(shard);
        for (std::size_t i = begin; i < end; ++i)
            out.push_back(i);
    } else {
        for (std::size_t i = shard; i < gridSize_; i += shardCount_)
            out.push_back(i);
    }
    return out;
}

std::size_t
ShardPlan::owner(std::size_t index) const
{
    sbn_assert(index < gridSize_, "grid index out of range");
    if (layout_ == ShardLayout::Strided)
        return index % shardCount_;
    const std::size_t base = gridSize_ / shardCount_;
    const std::size_t extra = gridSize_ % shardCount_;
    // First `extra` shards own (base + 1) points each.
    const std::size_t fat_span = extra * (base + 1);
    if (index < fat_span)
        return index / (base + 1);
    return extra + (index - fat_span) / base;
}

} // namespace sbn
