/**
 * @file
 * Cache-line-aligned vector storage.
 *
 * AlignedVec<T> is a std::vector over a cache-line-aligned allocator. It
 * backs the packed tag/p-bit arrays the probe paths scan (a 64-byte-
 * aligned base keeps a whole set's packed words inside one host cache
 * line) and the per-bus deferred event queues of core/filter_bank.hh.
 */

#ifndef JETTY_UTIL_ARENA_HH
#define JETTY_UTIL_ARENA_HH

#include <cstddef>
#include <new>
#include <vector>

namespace jetty::util
{

/** Minimal allocator handing out @p Align-aligned blocks. */
template <typename T, std::size_t Align = 64>
struct AlignedAllocator
{
    using value_type = T;

    /** Explicit rebind: the non-type Align parameter defeats the
     *  allocator_traits auto-rebind for Alloc<T, Args...>. */
    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t(Align)));
    }

    void
    deallocate(T *p, std::size_t)
    {
        ::operator delete(p, std::align_val_t(Align));
    }

    template <typename U>
    bool
    operator==(const AlignedAllocator<U, Align> &) const
    {
        return true;
    }
    template <typename U>
    bool
    operator!=(const AlignedAllocator<U, Align> &) const
    {
        return false;
    }
};

/** A std::vector whose storage starts on a cache-line boundary. */
template <typename T>
using AlignedVec = std::vector<T, AlignedAllocator<T>>;

} // namespace jetty::util

#endif // JETTY_UTIL_ARENA_HH
