#include "trace/trace_file.hh"

#include <cstring>

#include "util/atomic_file.hh"
#include "util/logging.hh"

namespace jetty::trace
{

namespace
{

constexpr char kMagicV1[8] = {'J', 'T', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr char kMagicV2[8] = {'J', 'T', 'T', 'R', 'A', 'C', 'E', '2'};

/** Bytes before the v2 per-section count table. */
constexpr std::uint64_t kV2FixedHeaderBytes = 16;

/** I/O chunk for bulk encode/decode/digest (records and raw bytes). */
constexpr std::size_t kIoChunkBytes = 1 << 20;

std::uint64_t
fileSize(std::FILE *f, const std::string &path)
{
    if (::fseeko(f, 0, SEEK_END) != 0)
        fatal("trace file '" + path + "': cannot seek");
    const off_t end = ::ftello(f);
    if (end < 0)
        fatal("trace file '" + path + "': cannot tell size");
    return static_cast<std::uint64_t>(end);
}

void
writeLe64(std::FILE *f, std::uint64_t v, const std::string &what)
{
    unsigned char b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
    if (std::fwrite(b, 1, 8, f) != 8)
        fatal("writeTraceFile: " + what + " write failed");
}

void
writeLe32(std::FILE *f, std::uint32_t v, const std::string &what)
{
    unsigned char b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
    if (std::fwrite(b, 1, 4, f) != 4)
        fatal("writeTraceFile: " + what + " write failed");
}

std::uint64_t
readLe64(std::FILE *f, const std::string &path)
{
    unsigned char b[8];
    if (std::fread(b, 1, 8, f) != 8)
        fatal("trace file '" + path + "': truncated header");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
}

std::uint32_t
readLe32(std::FILE *f, const std::string &path)
{
    unsigned char b[4];
    if (std::fread(b, 1, 4, f) != 4)
        fatal("trace file '" + path + "': truncated header");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
}

TraceFileInfo
parseInfo(std::FILE *f, const std::string &path)
{
    const std::uint64_t actual = fileSize(f, path);
    if (::fseeko(f, 0, SEEK_SET) != 0)
        fatal("trace file '" + path + "': cannot seek");

    char magic[8];
    if (std::fread(magic, 1, 8, f) != 8)
        fatal("trace file '" + path + "': bad header (too short)");

    if (std::memcmp(magic, kMagicV1, 8) == 0)
        fatal("trace file '" + path +
              "': JTTRACE1 is no longer read; re-capture with this build");
    if (std::memcmp(magic, kMagicV2, 8) != 0)
        fatal("trace file '" + path + "': bad header (unknown magic)");

    TraceFileInfo info;
    const std::uint32_t streams = readLe32(f, path);
    (void)readLe32(f, path);  // reserved
    if (streams == 0)
        fatal("trace file '" + path + "': no stream sections");
    std::uint64_t offset = kV2FixedHeaderBytes + std::uint64_t{streams} * 8;
    for (std::uint32_t s = 0; s < streams; ++s) {
        info.counts.push_back(readLe64(f, path));
        info.offsets.push_back(offset);
        offset += info.counts.back() * kTraceRecordBytes;
    }

    // Validate the declared counts against the actual size *before* any
    // caller trusts them (a corrupt header must not drive a reserve()).
    // Incremental subtraction keeps the check overflow-safe for absurd
    // 64-bit counts.
    const std::uint64_t header = info.offsets.front();
    if (actual < header)
        fatal("trace file '" + path + "': bad header (too short)");
    std::uint64_t remaining = actual - header;
    for (const auto count : info.counts) {
        if (count > remaining / kTraceRecordBytes) {
            fatal("trace file '" + path +
                  "': header record count exceeds the file size "
                  "(corrupt or truncated)");
        }
        remaining -= count * kTraceRecordBytes;
    }
    if (remaining != 0) {
        fatal("trace file '" + path +
              "': file size inconsistent with header record counts");
    }
    return info;
}

} // namespace

TraceFileInfo
readTraceFileInfo(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("readTraceFileInfo: cannot open '" + path + "'");
    const TraceFileInfo info = parseInfo(f, path);
    std::fclose(f);
    return info;
}

// ---- Writers ----------------------------------------------------------

TraceFileWriter::TraceFileWriter(const std::string &path, unsigned streams)
    : path_(path)
{
    if (streams == 0)
        fatal("TraceFileWriter: need at least one stream section");
    out_ = std::make_unique<util::AtomicFile>(path);
    if (!out_->error().empty())
        fatal("TraceFileWriter: " + out_->error());
    f_ = out_->stream();
    if (std::fwrite(kMagicV2, 1, 8, f_) != 8)
        fatal("TraceFileWriter: header write failed for '" + path + "'");
    writeLe32(f_, streams, "stream count");
    writeLe32(f_, 0, "reserved field");
    // Placeholder counts; close() patches them.
    for (unsigned s = 0; s < streams; ++s)
        writeLe64(f_, 0, "count placeholder");
    counts_.assign(streams, 0);
}

TraceFileWriter::~TraceFileWriter()
{
    if (closed_)
        return;
    if (current_ == counts_.size()) {
        close();
    } else if (out_) {
        // Incomplete capture: discard the temp file — nothing appears
        // at the final path.
        out_->abort();
        f_ = nullptr;
    }
}

void
TraceFileWriter::append(const TraceRecord *recs, std::size_t n)
{
    if (closed_ || current_ >= counts_.size())
        fatal("TraceFileWriter: append past the last stream section");
    unsigned char buf[kIoChunkBytes > (1 << 16) ? (1 << 16) : kIoChunkBytes];
    std::size_t done = 0;
    while (done < n) {
        const std::size_t batch = std::min<std::size_t>(
            (n - done), sizeof(buf) / kTraceRecordBytes);
        for (std::size_t i = 0; i < batch; ++i) {
            if (recs[done + i].addr > kMaxTraceAddr) {
                fatal("TraceFileWriter: address exceeds the 56-bit record "
                      "encoding");
            }
            encodeTraceRecord(recs[done + i],
                              buf + i * kTraceRecordBytes);
        }
        if (std::fwrite(buf, kTraceRecordBytes, batch, f_) != batch)
            fatal("TraceFileWriter: record write failed for '" + path_ + "'");
        done += batch;
    }
    counts_[current_] += n;
    total_ += n;
}

void
TraceFileWriter::append(const std::vector<TraceRecord> &recs)
{
    append(recs.data(), recs.size());
}

void
TraceFileWriter::endStream()
{
    if (closed_ || current_ >= counts_.size())
        fatal("TraceFileWriter: endStream past the last stream section");
    ++current_;
}

void
TraceFileWriter::close()
{
    if (closed_)
        return;
    if (current_ != counts_.size()) {
        fatal("TraceFileWriter: close with unfinished stream sections in '" +
              path_ + "'");
    }
    if (::fseeko(f_, kV2FixedHeaderBytes, SEEK_SET) != 0)
        fatal("TraceFileWriter: cannot seek to patch counts");
    for (const auto count : counts_)
        writeLe64(f_, count, "count");
    const std::string why = out_->commit();
    if (!why.empty())
        fatal("TraceFileWriter: " + why);
    f_ = nullptr;
    closed_ = true;
}

void
writeTraceFile(const std::string &path,
               const std::vector<TraceRecord> &records)
{
    TraceFileWriter writer(path, 1);
    writer.append(records);
    writer.endStream();
    writer.close();
}

std::uint64_t
traceFileDigest(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("traceFileDigest: cannot open '" + path + "'");
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    std::vector<unsigned char> buf(kIoChunkBytes);
    std::size_t n;
    while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
        for (std::size_t i = 0; i < n; ++i) {
            hash ^= buf[i];
            hash *= 0x100000001b3ULL;
        }
    }
    if (std::ferror(f)) {
        std::fclose(f);
        fatal("traceFileDigest: read error in '" + path + "'");
    }
    std::fclose(f);
    return hash;
}

std::vector<TraceRecord>
collect(TraceSource &src, std::uint64_t limit)
{
    std::vector<TraceRecord> out;
    TraceRecord buf[4096];
    for (;;) {
        std::size_t want = sizeof(buf) / sizeof(buf[0]);
        if (limit != 0)
            want = static_cast<std::size_t>(
                std::min<std::uint64_t>(want, limit - out.size()));
        if (want == 0)
            break;
        const std::size_t got = src.nextBatch(buf, want);
        out.insert(out.end(), buf, buf + got);
        if (got < want)
            break;
    }
    return out;
}

} // namespace jetty::trace
