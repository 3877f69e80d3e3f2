/**
 * @file
 * Binary trace file format: capture a reference stream once and replay
 * it, mirroring the paper's WWT2 trace-collection methodology.
 *
 * JTTRACE2: 8-byte magic "JTTRACE2", u32 stream-section count, u32
 * reserved, then one little-endian u64 record count per section, then
 * the sections back to back. Multi-section files hold one stream per
 * processor; record counts are 64-bit so a capture can exceed 4 Gi
 * records. The older single-section version-1 layout is refused with a
 * re-capture diagnostic.
 *
 * Every record is 8 bytes: {u8 type (0 = read, 1 = write), 7-byte
 * little-endian address}, so addresses are capped at 56 bits.
 *
 * Readers validate the header's record counts against the actual file
 * size before allocating anything, so a corrupt or truncated header
 * fails cleanly instead of triggering an unbounded allocation. A section
 * is read through trace::FileStreamSource (file_stream_source.hh), which
 * streams one section in chunks, so a trace larger than memory replays
 * too; collect() drains one into a vector.
 */

#ifndef JETTY_TRACE_TRACE_FILE_HH
#define JETTY_TRACE_TRACE_FILE_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_source.hh"

namespace jetty::util
{
class AtomicFile;
}

namespace jetty::trace
{

/** Bytes of one on-disk record. */
constexpr std::size_t kTraceRecordBytes = 8;

/** Largest address the 7-byte record encoding can carry. */
constexpr Addr kMaxTraceAddr = (Addr{1} << 56) - 1;

/** Encode one record into its 8-byte on-disk form. */
inline void
encodeTraceRecord(const TraceRecord &r, unsigned char out[kTraceRecordBytes])
{
    out[0] = r.type == AccessType::Write ? 1 : 0;
    for (int i = 0; i < 7; ++i)
        out[1 + i] = static_cast<unsigned char>((r.addr >> (8 * i)) & 0xff);
}

/** Decode one record from its 8-byte on-disk form. */
inline TraceRecord
decodeTraceRecord(const unsigned char *p)
{
    TraceRecord r;
    r.type = p[0] ? AccessType::Write : AccessType::Read;
    r.addr = 0;
    for (int b = 0; b < 7; ++b)
        r.addr |= static_cast<Addr>(p[1 + b]) << (8 * b);
    return r;
}

/** Parsed, size-validated header of a trace file. */
struct TraceFileInfo
{
    std::vector<std::uint64_t> counts;    //!< records per stream section
    std::vector<std::uint64_t> offsets;   //!< byte offset of each section

    std::size_t streams() const { return counts.size(); }

    std::uint64_t
    totalRecords() const
    {
        std::uint64_t total = 0;
        for (const auto c : counts)
            total += c;
        return total;
    }
};

/**
 * Parse and validate a trace file header. Calls fatal() when the file is
 * missing, the magic is unknown or version 1, or the declared record
 * counts are inconsistent with the actual file size.
 */
TraceFileInfo readTraceFileInfo(const std::string &path);

/**
 * Incremental JTTRACE2 writer: streams records section by section so a
 * capture never has to materialize the trace in memory.
 *
 * Usage: construct with the section count, then for each section in
 * order call append() any number of times followed by endStream(); close()
 * patches the header's record counts. Section s of an nprocs-section
 * capture is processor s's stream.
 *
 * Publication is atomic (util/atomic_file.hh): the bytes accumulate in
 * a temp file beside @p path and close() renames it into place, so a
 * writer killed mid-capture — or a capture abandoned before every
 * section ended — leaves *nothing* at the final path, never a
 * truncated or zero-count file a replay could mistake for a capture.
 */
class TraceFileWriter
{
  public:
    /** Open a temp file beside @p path and write a JTTRACE2 header for
     *  @p streams sections. Calls fatal() on I/O errors (as do all
     *  members). */
    TraceFileWriter(const std::string &path, unsigned streams);
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Append @p n records to the current stream section. */
    void append(const TraceRecord *recs, std::size_t n);
    void append(const std::vector<TraceRecord> &recs);

    /** Finish the current section and move to the next. */
    void endStream();

    /** Patch the header with the final counts and atomically publish
     *  the file at its final path. Every section must have been ended.
     *  Implied by the destructor only when all sections are complete;
     *  an incomplete writer's destructor discards the temp file
     *  instead. */
    void close();

    /** Records written so far across all sections. */
    std::uint64_t recordsWritten() const { return total_; }

  private:
    std::string path_;
    std::unique_ptr<util::AtomicFile> out_;
    std::FILE *f_ = nullptr;
    std::vector<std::uint64_t> counts_;
    unsigned current_ = 0;
    std::uint64_t total_ = 0;
    bool closed_ = false;
};

/** Write @p records to @p path as a single-section JTTRACE2 file. */
void writeTraceFile(const std::string &path,
                    const std::vector<TraceRecord> &records);

/** FNV-1a digest of the file's full contents; identifies a captured
 *  workload by what it replays, not where it lives (RunCache keying). */
std::uint64_t traceFileDigest(const std::string &path);

/** Drain up to @p limit records from @p src into a vector (0 = all). */
std::vector<TraceRecord> collect(TraceSource &src, std::uint64_t limit = 0);

} // namespace jetty::trace

#endif // JETTY_TRACE_TRACE_FILE_HH
