/**
 * @file
 * A fixed-size table of trivially copyable entries that starts all
 * zero, and whose copy costs memory only for what its source learned:
 * a large copy (predictor arrays of hundreds of KB, of which a short
 * run touches a few pages) maps untouched zero pages and writes only
 * the 4 KB blocks of its source that hold a nonzero byte. So a pipeline
 * snapshot costs what its predictors learned, not their capacity. A
 * table built from scratch comes from the heap like a vector's storage,
 * so a pipeline built per cell reuses memory instead of faulting in
 * fresh pages.
 */

#ifndef RSEP_COMMON_ZERO_TABLE_HH
#define RSEP_COMMON_ZERO_TABLE_HH

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/types.hh"

namespace rsep
{

template <class T>
class ZeroTable
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    ZeroTable() = default;

    /** @p n entries, every byte zero. */
    explicit ZeroTable(size_t n) : ZeroTable(n, false) {}

    ZeroTable(const ZeroTable &o) : ZeroTable(o.n, o.bytes >= mapBytes)
    {
        const char *from = reinterpret_cast<const char *>(o.p);
        char *to = reinterpret_cast<char *>(p);
        for (size_t at = 0; at < bytes; at += blockBytes) {
            size_t len = std::min(blockBytes, bytes - at);
            if (!mapped || !allZero(from + at, len))
                std::memcpy(to + at, from + at, len);
        }
    }
    ZeroTable &operator=(const ZeroTable &) = delete;

    ZeroTable(ZeroTable &&o) noexcept { swap(o); }
    ZeroTable &
    operator=(ZeroTable &&o) noexcept
    {
        ZeroTable gone(std::move(*this));
        swap(o);
        return *this;
    }

    ~ZeroTable()
    {
        if (mapped)
            munmap(p, bytes);
        else
            std::free(p);
    }

    size_t size() const { return n; }
    T &operator[](size_t i) { return p[i]; }
    const T &operator[](size_t i) const { return p[i]; }
    T *begin() { return p; }
    T *end() { return p + n; }
    const T *begin() const { return p; }
    const T *end() const { return p + n; }

  private:
    /** Copies from this size up are mapped, not allocated. */
    static constexpr size_t mapBytes = size_t{64} << 10;

    ZeroTable(size_t n, bool map) : n(n), bytes(n * sizeof(T)), mapped(map)
    {
        if (mapped) {
            void *m = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (m == MAP_FAILED)
                throw std::bad_alloc();
            p = static_cast<T *>(m);
        } else if (bytes) {
            p = static_cast<T *>(std::calloc(n, sizeof(T)));
            if (!p)
                throw std::bad_alloc();
        }
    }
    static constexpr size_t blockBytes = 4096;

    static bool
    allZero(const char *at, size_t len)
    {
        // One OR over the block's words (it vectorises), then the tail.
        u64 acc = 0;
        size_t i = 0;
        for (; i + 8 <= len; i += 8) {
            u64 w;
            std::memcpy(&w, at + i, 8);
            acc |= w;
        }
        for (; i < len; ++i)
            acc |= static_cast<unsigned char>(at[i]);
        return acc == 0;
    }

    void
    swap(ZeroTable &o) noexcept
    {
        std::swap(p, o.p);
        std::swap(n, o.n);
        std::swap(bytes, o.bytes);
        std::swap(mapped, o.mapped);
    }

    T *p = nullptr;
    size_t n = 0;
    size_t bytes = 0;
    bool mapped = false; ///< mmap'd (a large copy), not allocated.
};

} // namespace rsep

#endif // RSEP_COMMON_ZERO_TABLE_HH
