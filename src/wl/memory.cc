#include "wl/memory.hh"

namespace rsep::wl
{

namespace
{

/** What an unwritten page reads as; never written (a write makes a
 *  private page first). */
const SparseMemory::Page zeroPage{};

} // namespace

SparseMemory::SparseMemory(const SparseMemory &o) : base(o.base)
{
    pages.reserve(o.pages.size());
    for (const auto &[pn, page] : o.pages)
        pages.emplace(pn, std::make_unique<Page>(*page));
}

const SparseMemory::Page *
SparseMemory::basePage(Addr pn) const
{
    if (!base)
        return nullptr;
    auto it = base->find(pn);
    return it == base->end() ? nullptr : it->second.get();
}

const SparseMemory::Page *
SparseMemory::lookup(Addr pn) const
{
    Slot &s = slots[slotOf(pn)];
    s.pn = pn;
    s.own = nullptr;
    if (auto it = pages.find(pn); it != pages.end()) {
        s.own = it->second.get();
        s.page = s.own;
    } else {
        const Page *from = basePage(pn);
        s.page = from ? from : &zeroPage;
    }
    return s.page;
}

SparseMemory::Page *
SparseMemory::ownPage(Addr pn)
{
    auto [it, inserted] = pages.try_emplace(pn);
    if (inserted) {
        const Page *from = basePage(pn);
        it->second = from ? std::make_unique<Page>(*from)
                          : std::make_unique<Page>();
    }
    Slot &s = slots[slotOf(pn)];
    s.pn = pn;
    s.own = it->second.get();
    s.page = s.own;
    return s.own;
}

void
SparseMemory::clear()
{
    pages.clear();
    base.reset();
    slots.fill(Slot{});
}

size_t
SparseMemory::touchedPages() const
{
    size_t n = pages.size();
    if (base)
        for (const auto &entry : *base)
            n += !pages.count(entry.first);
    return n;
}

SparseMemory::Base
SparseMemory::freeze()
{
    if (base)
        for (const auto &[pn, page] : *base)
            if (!pages.count(pn))
                pages.emplace(pn, std::make_unique<Page>(*page));
    auto frozen = std::make_shared<PageTable>(std::move(pages));
    clear();
    return frozen;
}

} // namespace rsep::wl
