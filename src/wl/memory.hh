/**
 * @file
 * Sparse 64-bit-word memory backing the functional emulator.
 */

#ifndef RSEP_WL_MEMORY_HH
#define RSEP_WL_MEMORY_HH

#include <array>
#include <memory>
#include <unordered_map>

#include "common/types.hh"

namespace rsep::wl
{

/**
 * Page-granular sparse memory. All accesses are 8-byte words; addresses
 * are force-aligned (low 3 bits ignored). Unwritten memory reads as 0.
 *
 * A memory may sit on a read-only base (a frozen page table, see
 * freeze()): reads fall through to the base, and the first write to a
 * base page copies that page privately. The base is never written, so
 * any number of memories on any number of threads can share one.
 *
 * Lookups go through a direct-mapped page cache in front of the page
 * table, so the common access does not hash. The slot index is the top
 * bits of a multiplicative (Fibonacci) hash of the page number: the
 * kernels' data regions sit 256 MiB apart and gate_sim alternates
 * pages 4 MiB apart, so any index of low page bits alone would put
 * those pages in one slot.
 */
class SparseMemory
{
  public:
    static constexpr unsigned pageShift = 12;
    static constexpr Addr pageBytes = Addr{1} << pageShift;
    static constexpr unsigned wordsPerPage = pageBytes / 8;

    struct Page
    {
        u64 words[wordsPerPage] = {};
    };
    /** Page number -> page. */
    using PageTable = std::unordered_map<Addr, std::unique_ptr<Page>>;
    /** A frozen page table: the shared, read-only base of memories. */
    using Base = std::shared_ptr<const PageTable>;

    SparseMemory() = default;
    /** A memory that reads @p base until it writes a page itself. */
    explicit SparseMemory(Base base) : base(std::move(base)) {}

    /** Copies the private pages and shares the base. */
    SparseMemory(const SparseMemory &o);
    SparseMemory &operator=(const SparseMemory &) = delete;
    SparseMemory(SparseMemory &&) = default;
    SparseMemory &operator=(SparseMemory &&) = default;

    /** Read the 64-bit word at @p addr (aligned down). */
    u64
    read(Addr addr) const
    {
        Addr wa = addr >> 3;
        Addr pn = wa >> (pageShift - 3);
        const Slot &s = slots[slotOf(pn)];
        const Page *page = s.pn == pn ? s.page : lookup(pn);
        return page->words[wa & (wordsPerPage - 1)];
    }

    /** Write the 64-bit word at @p addr (aligned down). */
    void
    write(Addr addr, u64 val)
    {
        Addr wa = addr >> 3;
        Addr pn = wa >> (pageShift - 3);
        const Slot &s = slots[slotOf(pn)];
        Page *page = s.pn == pn && s.own ? s.own : ownPage(pn);
        page->words[wa & (wordsPerPage - 1)] = val;
    }

    /** Drop all content and the base (reads become 0 again). */
    void clear();

    /** Number of readable pages, base included (footprint reporting). */
    size_t touchedPages() const;

    /**
     * Move every page, base pages included, into a new frozen table
     * and return it; this memory is left empty.
     */
    Base freeze();

  private:
    struct Slot
    {
        Addr pn = ~Addr{0};     ///< cached page number; ~0 = empty.
        const Page *page = nullptr;
        Page *own = nullptr;    ///< set when the page is private.
    };
    static constexpr unsigned slotBits = 9;

    static size_t
    slotOf(Addr pn)
    {
        return (pn * 0x9e3779b97f4a7c15ull) >> (64 - slotBits);
    }

    /** Slow path of read(): find @p pn and cache it. */
    const Page *lookup(Addr pn) const;
    /** Slow path of write(): the private page @p pn, copied from the
     *  base or made zeroed on first write, and cached. */
    Page *ownPage(Addr pn);
    /** @p pn's page in the base, or null. */
    const Page *basePage(Addr pn) const;

    PageTable pages; ///< private pages.
    Base base;
    mutable std::array<Slot, size_t{1} << slotBits> slots{};
};

} // namespace rsep::wl

#endif // RSEP_WL_MEMORY_HH
