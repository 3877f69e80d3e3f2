#include "trace/file_stream_source.hh"

#include <algorithm>

#include "util/logging.hh"

namespace jetty::trace
{

FileStreamSource::FileStreamSource(const std::string &path,
                                   std::size_t stream,
                                   std::size_t chunkRecords)
    : path_(path), chunkRecords_(chunkRecords >= 1 ? chunkRecords : 1)
{
    const TraceFileInfo info = readTraceFileInfo(path);
    if (stream >= info.streams()) {
        fatal("FileStreamSource: '" + path + "' has " +
              std::to_string(info.streams()) + " stream(s), requested " +
              std::to_string(stream));
    }
    sectionOffset_ = info.offsets[stream];
    count_ = info.counts[stream];

    f_ = std::fopen(path.c_str(), "rb");
    if (!f_)
        fatal("FileStreamSource: cannot open '" + path + "'");
    buf_.resize(chunkRecords_ * kTraceRecordBytes);
    seekTo(0);
}

FileStreamSource::~FileStreamSource()
{
    if (f_)
        std::fclose(f_);
}

void
FileStreamSource::seekTo(std::uint64_t record)
{
    if (record > count_) {
        fatal("FileStreamSource: seek past the end of '" + path_ + "' (" +
              std::to_string(record) + " of " + std::to_string(count_) +
              " records)");
    }
    if (::fseeko(f_,
                    static_cast<off_t>(
                        recordByteOffset(sectionOffset_, record)),
                    SEEK_SET) != 0) {
        fatal("FileStreamSource: cannot seek in '" + path_ + "'");
    }
    fileRecord_ = record;
    bufPos_ = bufLen_ = 0;
}

bool
FileStreamSource::refill()
{
    const std::size_t n = chunkRecordsAt(count_, fileRecord_, chunkRecords_);
    if (n == 0)
        return false;
    if (std::fread(buf_.data(), kTraceRecordBytes, n, f_) != n)
        fatal("FileStreamSource: truncated record in '" + path_ + "'");
    fileRecord_ += n;
    bufPos_ = 0;
    bufLen_ = n * kTraceRecordBytes;
    return true;
}

bool
FileStreamSource::next(TraceRecord &out)
{
    if (bufPos_ == bufLen_ && !refill())
        return false;
    out = decodeTraceRecord(buf_.data() + bufPos_);
    bufPos_ += kTraceRecordBytes;
    return true;
}

std::size_t
FileStreamSource::nextBatch(TraceRecord *out, std::size_t max)
{
    std::size_t done = 0;
    while (done < max) {
        if (bufPos_ == bufLen_ && !refill())
            break;
        const std::size_t avail = (bufLen_ - bufPos_) / kTraceRecordBytes;
        const std::size_t n = std::min(avail, max - done);
        const unsigned char *p = buf_.data() + bufPos_;
        for (std::size_t i = 0; i < n; ++i)
            out[done + i] = decodeTraceRecord(p + i * kTraceRecordBytes);
        bufPos_ += n * kTraceRecordBytes;
        done += n;
    }
    return done;
}

std::vector<TraceSourcePtr>
makeFileSources(const std::vector<std::string> &files, unsigned nprocs)
{
    if (files.empty())
        fatal("makeFileSources: no trace files given");
    if (nprocs == 0)
        fatal("makeFileSources: need at least one processor");

    std::vector<TraceSourcePtr> sources;
    sources.reserve(nprocs);

    if (files.size() == 1) {
        const TraceFileInfo info = readTraceFileInfo(files[0]);
        if (info.streams() == nprocs) {
            for (unsigned p = 0; p < nprocs; ++p)
                sources.push_back(
                    std::make_unique<FileStreamSource>(files[0], p));
        } else if (info.streams() == 1) {
            // Homogeneous load: one captured stream on every processor.
            for (unsigned p = 0; p < nprocs; ++p)
                sources.push_back(
                    std::make_unique<FileStreamSource>(files[0], 0));
        } else {
            fatal("makeFileSources: '" + files[0] + "' holds " +
                  std::to_string(info.streams()) + " streams but " +
                  std::to_string(nprocs) + " processors were requested");
        }
        return sources;
    }

    if (files.size() != nprocs) {
        fatal("makeFileSources: got " + std::to_string(files.size()) +
              " trace files for " + std::to_string(nprocs) +
              " processors (need one file per processor, or one file)");
    }
    for (const auto &file : files) {
        const TraceFileInfo info = readTraceFileInfo(file);
        if (info.streams() != 1) {
            fatal("makeFileSources: '" + file + "' holds " +
                  std::to_string(info.streams()) +
                  " streams; per-processor file lists need single-stream "
                  "files");
        }
        sources.push_back(std::make_unique<FileStreamSource>(file, 0));
    }
    return sources;
}

unsigned
inferReplayProcs(const std::vector<std::string> &files, unsigned fallback)
{
    if (files.empty())
        fatal("inferReplayProcs: no trace files given");
    if (files.size() > 1)
        return static_cast<unsigned>(files.size());
    const TraceFileInfo info = readTraceFileInfo(files[0]);
    if (info.streams() > 1)
        return static_cast<unsigned>(info.streams());
    return fallback;
}

} // namespace jetty::trace
