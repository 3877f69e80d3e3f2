/**
 * @file
 * Abstract stream of memory references consumed by the simulator. Sources
 * are per-processor; the simulator interleaves them round-robin (a
 * WWT2-style quantum of one reference).
 */

#ifndef JETTY_TRACE_TRACE_SOURCE_HH
#define JETTY_TRACE_TRACE_SOURCE_HH

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "util/types.hh"

namespace jetty::trace
{

/** One memory reference. */
struct TraceRecord
{
    AccessType type = AccessType::Read;
    Addr addr = 0;
};

/**
 * A finite stream of references for one processor. A source is consumed
 * once; a second run asks its producer (Workload::makeSource, or a new
 * FileStreamSource on the same file section) for a fresh one.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next reference.
     * @return false when the stream is exhausted (@p out untouched).
     */
    virtual bool next(TraceRecord &out) = 0;

    /**
     * Produce up to @p max references into @p out.
     *
     * Batching is a transport optimization, never a semantic one: the
     * records delivered are exactly those that the same number of next()
     * calls would have produced, in the same order, whatever mix of
     * batch sizes the consumer uses. The simulator relies on this to keep
     * batched and scalar delivery bit-identical.
     *
     * @return the number produced; less than @p max only when the stream
     *         is exhausted (so a short count ends the stream).
     */
    virtual std::size_t
    nextBatch(TraceRecord *out, std::size_t max)
    {
        std::size_t n = 0;
        while (n < max && next(out[n]))
            ++n;
        return n;
    }
};

using TraceSourcePtr = std::unique_ptr<TraceSource>;

/** A canned reference list (tests, file replays). */
class VectorTraceSource : public TraceSource
{
  public:
    explicit VectorTraceSource(std::vector<TraceRecord> records)
        : records_(std::move(records))
    {}

    bool
    next(TraceRecord &out) override
    {
        if (pos_ >= records_.size())
            return false;
        out = records_[pos_++];
        return true;
    }

    std::size_t
    nextBatch(TraceRecord *out, std::size_t max) override
    {
        const std::size_t n =
            std::min<std::size_t>(max, records_.size() - pos_);
        std::copy_n(records_.begin() + static_cast<std::ptrdiff_t>(pos_), n,
                    out);
        pos_ += n;
        return n;
    }

  private:
    std::vector<TraceRecord> records_;
    std::size_t pos_ = 0;
};

} // namespace jetty::trace

#endif // JETTY_TRACE_TRACE_SOURCE_HH
