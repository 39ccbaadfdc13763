/**
 * @file
 * A contiguous power-of-two ring buffer with deque semantics
 * (push_back / pop_front / pop_back / random access), built for the
 * cycle-loop hot path: the ROB, the frontend queue and the TraceBuffer
 * window are all age-ordered sliding windows that deque'd through
 * malloc on every push. The ring reserves once and then recycles
 * slots — zero steady-state allocation, indexing is a mask and an
 * add — while keeping the "position = seq - front-seq" contiguity the
 * O(1) findBySeq contract relies on.
 *
 * Capacity grows on demand (doubling, elements moved in age order), so
 * a caller that reserves its worst case up front never reallocates.
 */

#ifndef RSEP_COMMON_RING_BUFFER_HH
#define RSEP_COMMON_RING_BUFFER_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace rsep
{

template <typename T>
class RingBuffer
{
  public:
    RingBuffer() = default;

    explicit RingBuffer(size_t capacity_hint) { reserve(capacity_hint); }

    /** A copy holds the live elements only, in the least capacity that
     *  fits them: reserve() again before a loop that must not grow. */
    RingBuffer(const RingBuffer &o)
    {
        reserve(o.count);
        for (size_t i = 0; i < o.count; ++i)
            buf[i] = o[i];
        count = o.count;
    }
    RingBuffer &operator=(const RingBuffer &) = delete;
    RingBuffer(RingBuffer &&) = default;
    RingBuffer &operator=(RingBuffer &&) = default;

    bool empty() const { return count == 0; }
    size_t size() const { return count; }
    size_t capacity() const { return buf.size(); }

    /** Ensure room for @p n elements without reallocation. */
    void
    reserve(size_t n)
    {
        if (n > buf.size())
            regrow(n);
    }

    T &
    operator[](size_t i)
    {
        return buf[(head + i) & mask];
    }

    const T &
    operator[](size_t i) const
    {
        return buf[(head + i) & mask];
    }

    T &front() { return buf[head]; }
    const T &front() const { return buf[head]; }
    T &back() { return buf[(head + count - 1) & mask]; }
    const T &back() const { return buf[(head + count - 1) & mask]; }

    void
    push_back(T v)
    {
        if (count == buf.size())
            regrow(count ? count * 2 : 16);
        buf[(head + count) & mask] = std::move(v);
        ++count;
    }

    /** Append a default-constructed element in place and return it —
     *  the caller fills it in the ring slot, avoiding a large-object
     *  copy. The recycled slot is reset by constructing directly into
     *  it (no temporary + assignment round trip). */
    T &
    emplace_back()
    {
        if (count == buf.size())
            regrow(count ? count * 2 : 16);
        T &slot = buf[(head + count) & mask];
        slot.~T();
        new (&slot) T{};
        ++count;
        return slot;
    }

    void
    pop_front()
    {
        if (count == 0)
            rsep_panic("ring buffer pop_front on empty buffer");
        if constexpr (!std::is_trivially_destructible_v<T>)
            buf[head] = T{}; // drop held resources eagerly.
        head = (head + 1) & mask;
        --count;
    }

    void
    pop_back()
    {
        if (count == 0)
            rsep_panic("ring buffer pop_back on empty buffer");
        --count;
        if constexpr (!std::is_trivially_destructible_v<T>)
            buf[(head + count) & mask] = T{};
    }

    /** Drop every element; capacity is retained. */
    void
    clear()
    {
        while (count)
            pop_back();
        head = 0;
    }

  private:
    void
    regrow(size_t need)
    {
        size_t cap = buf.empty() ? 16 : buf.size();
        while (cap < need)
            cap *= 2;
        std::vector<T> next(cap);
        for (size_t i = 0; i < count; ++i)
            next[i] = std::move(buf[(head + i) & mask]);
        buf = std::move(next);
        head = 0;
        mask = buf.size() - 1;
    }

    std::vector<T> buf;
    size_t head = 0;
    size_t count = 0;
    size_t mask = 0;
};

} // namespace rsep

#endif // RSEP_COMMON_RING_BUFFER_HH
