/**
 * @file
 * FileStreamSource: chunked replay of one stream section of a JTTRACE2
 * trace file. Only a bounded window of the file is ever in memory, so
 * traces far larger than RAM — including > 4 Gi-record captures — replay
 * at full speed through the batched delivery path.
 */

#ifndef JETTY_TRACE_FILE_STREAM_SOURCE_HH
#define JETTY_TRACE_FILE_STREAM_SOURCE_HH

#include <cstdio>
#include <string>
#include <vector>

#include "trace/trace_file.hh"
#include "trace/trace_source.hh"

namespace jetty::trace
{

/**
 * A TraceSource that streams one section of a trace file through a
 * fixed-size chunk buffer. Each source owns its file handle, so one
 * captured section can feed many processors or many concurrently running
 * systems through one source each.
 */
class FileStreamSource : public TraceSource
{
  public:
    /** Records buffered per refill (512 KiB of file data). */
    static constexpr std::size_t kDefaultChunkRecords = 64 * 1024;

    /**
     * Open stream section @p stream of @p path. The header is validated
     * against the file size up front (fatal() on corruption), so every
     * later read is within bounds.
     * @param chunkRecords records fetched per refill (>= 1).
     */
    explicit FileStreamSource(
        const std::string &path, std::size_t stream = 0,
        std::size_t chunkRecords = kDefaultChunkRecords);

    ~FileStreamSource() override;

    FileStreamSource(const FileStreamSource &) = delete;
    FileStreamSource &operator=(const FileStreamSource &) = delete;

    bool next(TraceRecord &out) override;
    std::size_t nextBatch(TraceRecord *out, std::size_t max) override;

    /** Records in this stream section. */
    std::uint64_t records() const { return count_; }

    /** File byte offset of record @p record of a section that starts at
     *  byte @p sectionOffset (the chunking arithmetic, kept pure and
     *  separately testable against > 4 Gi-record indices). */
    static std::uint64_t
    recordByteOffset(std::uint64_t sectionOffset, std::uint64_t record)
    {
        return sectionOffset + record * kTraceRecordBytes;
    }

    /** Records the next refill at position @p record may fetch. */
    static std::size_t
    chunkRecordsAt(std::uint64_t count, std::uint64_t record,
                   std::size_t chunkRecords)
    {
        const std::uint64_t left = record < count ? count - record : 0;
        return static_cast<std::size_t>(
            left < chunkRecords ? left : chunkRecords);
    }

  private:
    /**
     * Position the cursor so the next record delivered is record
     * @p record (0-based) of the section. Seeking to records() makes the
     * stream immediately exhausted. The byte offset is computed in
     * 64 bits, so sections beyond 4 Gi records address the file
     * correctly.
     */
    void seekTo(std::uint64_t record);

    /** Load the chunk at fileRecord_; returns false at end of stream. */
    bool refill();

    std::string path_;
    std::size_t chunkRecords_;
    std::uint64_t sectionOffset_ = 0;  //!< byte offset of the section
    std::uint64_t count_ = 0;          //!< records in the section
    std::uint64_t fileRecord_ = 0;     //!< records consumed from the file
    std::FILE *f_ = nullptr;
    std::vector<unsigned char> buf_;   //!< raw chunk bytes
    std::size_t bufPos_ = 0;           //!< undelivered window start (bytes)
    std::size_t bufLen_ = 0;           //!< valid bytes in buf_
};

/**
 * Build one replay source per processor from trace files:
 *  - one file whose section count equals @p nprocs: section p feeds
 *    processor p;
 *  - one single-section file: one independent source per processor
 *    replays it;
 *  - @p nprocs files: file p's single section feeds processor p.
 * Anything else is fatal().
 */
std::vector<TraceSourcePtr>
makeFileSources(const std::vector<std::string> &files, unsigned nprocs);

/**
 * How many processors @p files drive under the makeFileSources rules:
 * the file count when several files are given, a single file's section
 * count when it has more than one, and @p fallback for one
 * single-section file (which can feed any machine size).
 */
unsigned inferReplayProcs(const std::vector<std::string> &files,
                          unsigned fallback);

} // namespace jetty::trace

#endif // JETTY_TRACE_FILE_STREAM_SOURCE_HH
