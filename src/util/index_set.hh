/**
 * @file
 * Fixed-capacity ordered set of small integer indices.
 *
 * A bitset of 64-bit words plus a live count. Iteration and nth()
 * always walk members in ascending index order, which is what lets
 * the incremental arbitration candidate sets reproduce the classic
 * kernel's index-ordered scans (and their Random-selection RNG
 * consumption) exactly. All mutating operations are allocation-free
 * after construction.
 */

#ifndef SBN_UTIL_INDEX_SET_HH
#define SBN_UTIL_INDEX_SET_HH

#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace sbn {

namespace detail {

/** Select positions for every byte value: pos[b][k] is the bit index
 *  of the k-th set bit of b (0xff for k >= popcount(b)), and count[b]
 *  is popcount(b). */
struct ByteSelect
{
    std::uint8_t pos[256][8];
    std::uint8_t count[256];
};

constexpr ByteSelect
makeByteSelect()
{
    ByteSelect table{};
    for (unsigned byte = 0; byte < 256; ++byte) {
        unsigned k = 0;
        for (unsigned bit = 0; bit < 8; ++bit)
            if ((byte >> bit) & 1u)
                table.pos[byte][k++] = static_cast<std::uint8_t>(bit);
        table.count[byte] = static_cast<std::uint8_t>(k);
        for (; k < 8; ++k)
            table.pos[byte][k] = 0xff;
    }
    return table;
}

inline constexpr ByteSelect kByteSelect = makeByteSelect();

} // namespace detail

class IndexSet
{
  public:
    IndexSet() = default;

    explicit IndexSet(std::size_t capacity) { resize(capacity); }

    /** Reset to empty with room for indices [0, capacity). */
    void
    resize(std::size_t capacity)
    {
        capacity_ = capacity;
        numWords_ = (capacity + 63) / 64;
        for (auto &word : inline_)
            word = 0;
        heap_.assign(numWords_ > kInlineWords ? numWords_ : 0, 0);
        count_ = 0;
    }

    std::size_t capacity() const { return capacity_; }
    std::size_t count() const { return count_; }
    bool empty() const { return count_ == 0; }

    bool
    contains(std::size_t index) const
    {
        sbn_assert(index < capacity_, "IndexSet contains out of range");
        return (words()[index / 64] >> (index % 64)) & 1u;
    }

    /** Add @p index; returns true if it was not already a member. */
    bool
    insert(std::size_t index)
    {
        sbn_assert(index < capacity_, "IndexSet insert out of range");
        std::uint64_t &word = words()[index / 64];
        const bool added = ((word >> (index % 64)) & 1u) == 0;
        word |= 1ull << (index % 64);
        count_ += added; // no branch: membership is data-dependent
        return added;
    }

    /** Remove @p index; returns true if it was a member. */
    bool
    erase(std::size_t index)
    {
        sbn_assert(index < capacity_, "IndexSet erase out of range");
        std::uint64_t &word = words()[index / 64];
        const bool removed = ((word >> (index % 64)) & 1u) != 0;
        word &= ~(1ull << (index % 64));
        count_ -= removed;
        return removed;
    }

    void
    clear()
    {
        std::uint64_t *const words = this->words();
        for (std::size_t w = 0; w < numWords_; ++w)
            words[w] = 0;
        count_ = 0;
    }

    /** Union @p other in (capacities must match). */
    void
    insertAll(const IndexSet &other)
    {
        sbn_assert(other.numWords_ == numWords_,
                   "IndexSet capacity mismatch");
        std::uint64_t *const words = this->words();
        const std::uint64_t *const others = other.words();
        for (std::size_t w = 0; w < numWords_; ++w) {
            const std::uint64_t added = others[w] & ~words[w];
            words[w] |= added;
            count_ += static_cast<std::size_t>(__builtin_popcountll(added));
        }
    }

    /** Remove every member of @p other (capacities must match). */
    void
    eraseAll(const IndexSet &other)
    {
        sbn_assert(other.numWords_ == numWords_,
                   "IndexSet capacity mismatch");
        std::uint64_t *const words = this->words();
        const std::uint64_t *const others = other.words();
        for (std::size_t w = 0; w < numWords_; ++w) {
            const std::uint64_t removed = others[w] & words[w];
            words[w] &= ~removed;
            count_ -= static_cast<std::size_t>(__builtin_popcountll(removed));
        }
    }

    /** The k-th smallest member (0-based). @pre k < count() */
    std::size_t
    nth(std::size_t k) const
    {
        sbn_assert(k < count_, "IndexSet::nth out of range");
        // Sets of at most 16 indices (n or m <= 16) select with table
        // loads: the k-th bit of the low byte, or the (k - c)-th of the
        // high byte when the low byte holds only c < k + 1 members.
        // These branches are fixed per set, so they predict.
        const detail::ByteSelect &table = detail::kByteSelect;
        const std::uint64_t *const words = this->words();
        if (capacity_ <= 8)
            return table.pos[words[0]][k];
        if (capacity_ <= 16) {
            const std::uint64_t word = words[0];
            const std::size_t low = table.count[word & 0xff];
            return k < low ? table.pos[word & 0xff][k]
                           : 8u + table.pos[word >> 8][k - low];
        }
        if (numWords_ == 1)
            return selectBit(words[0], k);
        for (std::size_t w = 0;; ++w) {
            const std::uint64_t word = words[w];
            const auto populated =
                static_cast<std::size_t>(__builtin_popcountll(word));
            if (k < populated)
                return w * 64 + selectBit(word, k);
            k -= populated;
        }
    }

    /** Visit members in ascending order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::uint64_t *const words = this->words();
        for (std::size_t w = 0; w < numWords_; ++w) {
            std::uint64_t word = words[w];
            while (word != 0) {
                const auto bit = static_cast<std::size_t>(
                    __builtin_ctzll(word));
                fn(w * 64 + bit);
                word &= word - 1;
            }
        }
    }

  private:
    /** Sets of up to 64 * kInlineWords indices keep their words in the
     *  object itself (every arbitration set of a system with at most
     *  128 processors); larger ones on the heap. */
    static constexpr std::size_t kInlineWords = 2;

    /**
     * Position of the k-th (0-based) set bit of @p word, without a
     * branch (the arbitration hot path calls this with a random k
     * every grant, so a data-dependent branch would mispredict): a
     * SWAR popcount per byte, their prefix sums in one multiply, a
     * bytewise compare against k that counts the bytes wholly below
     * the k-th bit, then one byte-table lookup. Prefix sums are at
     * most 64, so the compare never borrows across bytes.
     * @pre k < popcount(word)
     */
    static std::size_t
    selectBit(std::uint64_t word, std::size_t k)
    {
        constexpr std::uint64_t kOnes = 0x0101010101010101ull;
        constexpr std::uint64_t kHigh = 0x8080808080808080ull;
        std::uint64_t bytes = word - ((word >> 1) & 0x5555555555555555ull);
        bytes = (bytes & 0x3333333333333333ull) +
                ((bytes >> 2) & 0x3333333333333333ull);
        bytes = (bytes + (bytes >> 4)) & 0x0f0f0f0f0f0f0f0full;
        // Byte i of prefix: set bits in bytes 0..i.
        const std::uint64_t prefix = bytes * kOnes;
        // High bit of byte i set <=> prefix byte i <= k.
        const std::uint64_t below = ((k * kOnes) | kHigh) - prefix;
        const auto byte = static_cast<unsigned>(
            __builtin_ctzll(~below & kHigh) >> 3);
        // Set bits before the target byte (prefix byte byte - 1).
        const auto before = static_cast<std::size_t>(
            ((prefix << 8) >> (8 * byte)) & 0xff);
        return 8 * byte +
               detail::kByteSelect.pos[(word >> (8 * byte)) & 0xff]
                                      [k - before];
    }

    /** The words: inline_ unless numWords_ > kInlineWords. A branch
     *  fixed per set, so it predicts, and the words of a small set
     *  are one load from the set, with no pointer to follow. */
    std::uint64_t *words()
    {
        return numWords_ <= kInlineWords ? inline_ : heap_.data();
    }
    const std::uint64_t *words() const
    {
        return numWords_ <= kInlineWords ? inline_ : heap_.data();
    }

    std::uint64_t inline_[kInlineWords] = {};
    std::vector<std::uint64_t> heap_; //!< all words, when not inline
    std::size_t numWords_ = 0;
    std::size_t capacity_ = 0;
    std::size_t count_ = 0;
};

} // namespace sbn

#endif // SBN_UTIL_INDEX_SET_HH
