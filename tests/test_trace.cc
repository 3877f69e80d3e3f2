/**
 * @file
 * Tests for the workload substrate: determinism, layout, page
 * scrambling, the application registry, stream behaviours, the trace
 * file format (JTTRACE2), the nextBatch delivery contract,
 * and the chunked FileStreamSource.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <set>

#include "trace/apps.hh"
#include "trace/file_stream_source.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"
#include "trace/trace_source.hh"

using namespace jetty;
using namespace jetty::trace;

namespace
{

AppProfile
tinyProfile()
{
    AppProfile p;
    p.name = "Tiny";
    p.abbrev = "ti";
    p.accessesPerProc = 5000;
    p.reuseProb = 0.5;
    p.wordBytes = 4;
    p.seed = 99;
    StreamSpec s;
    s.kind = StreamKind::Private;
    s.weight = 1.0;
    s.bytes = 64 * 1024;
    s.residentBytes = 16 * 1024;
    s.residentFraction = 0.5;
    p.streams = {s};
    return p;
}

} // namespace

TEST(Workload, DeterministicAcrossInstances)
{
    const AppProfile p = tinyProfile();
    Workload w1(p, 4), w2(p, 4);
    auto s1 = w1.makeSource(2), s2 = w2.makeSource(2);
    TraceRecord a, b;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(s1->next(a));
        ASSERT_TRUE(s2->next(b));
        ASSERT_EQ(a.addr, b.addr);
        ASSERT_EQ(a.type, b.type);
    }
    EXPECT_FALSE(s1->next(a));
}

TEST(Workload, ProcessorsGetDistinctStreams)
{
    Workload w(tinyProfile(), 4);
    auto s0 = w.makeSource(0), s1 = w.makeSource(1);
    TraceRecord a, b;
    bool differs = false;
    for (int i = 0; i < 200; ++i) {
        s0->next(a);
        s1->next(b);
        differs |= a.addr != b.addr;
    }
    EXPECT_TRUE(differs);
}

TEST(Workload, AccessScaleApplies)
{
    Workload w(tinyProfile(), 2, 0.1);
    EXPECT_EQ(w.accessesPerProc(), 500u);
    auto s = w.makeSource(0);
    TraceRecord r;
    std::uint64_t n = 0;
    while (s->next(r))
        ++n;
    EXPECT_EQ(n, 500u);
}

TEST(Workload, LayoutsDoNotOverlap)
{
    AppProfile p = tinyProfile();
    StreamSpec shared;
    shared.kind = StreamKind::ReadShared;
    shared.weight = 0.5;
    shared.bytes = 32 * 1024;
    p.streams.push_back(shared);
    Workload w(p, 4);
    const auto &ls = w.layouts();
    ASSERT_EQ(ls.size(), 2u);
    EXPECT_GE(ls[1].base, ls[0].base + ls[0].totalBytes);
}

TEST(Workload, MemoryAllocatedCoversRegions)
{
    Workload w(tinyProfile(), 4);
    // One 64KB private region per processor (page aligned).
    EXPECT_GE(w.memoryAllocated(), 4u * 64u * 1024u);
}

TEST(Workload, TranslateIsInjectiveOnPages)
{
    Workload w(tinyProfile(), 4);
    std::set<Addr> frames;
    const auto &ls = w.layouts();
    const Addr base = ls[0].base;
    for (Addr page = 0; page < ls[0].totalBytes / 4096; ++page) {
        const Addr phys = w.translate(base + page * 4096);
        EXPECT_EQ(phys & 4095, base & 4095 ? 0 : (base + page * 4096) & 4095);
        EXPECT_TRUE(frames.insert(phys & ~Addr{4095}).second)
            << "two pages mapped to one frame";
    }
}

TEST(Workload, TranslatePreservesPageOffsets)
{
    Workload w(tinyProfile(), 4);
    const Addr v = w.layouts()[0].base + 0x1234;
    EXPECT_EQ(w.translate(v) & 4095, v & 4095);
    // Two addresses on one page stay on one page.
    EXPECT_EQ(w.translate(v) + 4, w.translate(v + 4));
}

TEST(Workload, TranslateIdentityOutsideRegions)
{
    Workload w(tinyProfile(), 4);
    EXPECT_EQ(w.translate(0x42), 0x42u);
}

TEST(Workload, SourcesEmitWordAlignedAddressesInRange)
{
    Workload w(tinyProfile(), 4);
    auto s = w.makeSource(0);
    TraceRecord r;
    while (s->next(r))
        EXPECT_EQ(r.addr % 4, 0u);
}

TEST(Workload, RejectsZeroProcs)
{
    EXPECT_EXIT(Workload(tinyProfile(), 0), ::testing::ExitedWithCode(1),
                "at least one");
}

TEST(Workload, RejectsEmptyProfile)
{
    AppProfile p = tinyProfile();
    p.streams.clear();
    EXPECT_EXIT(Workload(p, 4), ::testing::ExitedWithCode(1), "no streams");
}

TEST(Apps, RegistryHasTenPaperApps)
{
    const auto apps = paperApps();
    ASSERT_EQ(apps.size(), 10u);
    EXPECT_EQ(apps.front().abbrev, "ba");
    EXPECT_EQ(apps.back().abbrev, "un");
    std::set<std::string> abbrevs;
    for (const auto &a : apps) {
        EXPECT_FALSE(a.streams.empty()) << a.name;
        abbrevs.insert(a.abbrev);
    }
    EXPECT_EQ(abbrevs.size(), 10u);
}

TEST(Apps, LookupByAbbrevAndName)
{
    EXPECT_EQ(appByName("ba").name, "Barnes");
    EXPECT_EQ(appByName("RADIX").abbrev, "ra");
    EXPECT_EQ(appByName(" lu ").name, "Lu");
}

TEST(Apps, LookupUnknownFatal)
{
    EXPECT_EXIT(appByName("nope"), ::testing::ExitedWithCode(1), "unknown");
}

TEST(Apps, SpecialWorkloadsExist)
{
    EXPECT_EQ(throughputServer().streams.size(), 1u);
    EXPECT_EQ(widelyShared().streams.size(), 2u);
}

TEST(Streams, MigratoryOwnershipDisjointWithinSweep)
{
    // At any step index, the objects visited by different processors must
    // be disjoint (no two processors own one object simultaneously).
    AppProfile p = tinyProfile();
    p.reuseProb = 0.0;
    StreamSpec mig;
    mig.kind = StreamKind::Migratory;
    mig.weight = 1.0;
    mig.bytes = 8 * 1024;
    mig.objectBytes = 128;
    p.streams = {mig};
    Workload w(p, 4);

    std::vector<TraceSourcePtr> sources;
    for (unsigned q = 0; q < 4; ++q)
        sources.push_back(w.makeSource(q));

    // Lockstep: compare the object each processor touches per step.
    for (int step = 0; step < 2000; ++step) {
        std::set<Addr> objects;
        for (auto &s : sources) {
            TraceRecord r;
            ASSERT_TRUE(s->next(r));
            objects.insert(r.addr / 128);
        }
        EXPECT_EQ(objects.size(), 4u) << "step " << step;
    }
}

TEST(Streams, ProducerConsumerAlternatesPhases)
{
    AppProfile p = tinyProfile();
    p.reuseProb = 0.0;
    StreamSpec pc;
    pc.kind = StreamKind::ProducerConsumer;
    pc.weight = 1.0;
    pc.bytes = 16 * 1024;
    pc.epochLen = 64;
    p.streams = {pc};
    Workload w(p, 2);
    auto s = w.makeSource(0);

    // First epoch: all writes; second epoch: all reads.
    TraceRecord r;
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(s->next(r));
        EXPECT_EQ(r.type, AccessType::Write) << i;
    }
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(s->next(r));
        EXPECT_EQ(r.type, AccessType::Read) << i;
    }
}

TEST(Streams, ReadSharedOnlyReads)
{
    AppProfile p = tinyProfile();
    StreamSpec sh;
    sh.kind = StreamKind::ReadShared;
    sh.weight = 1.0;
    sh.bytes = 8 * 1024;
    p.streams = {sh};
    Workload w(p, 2);
    auto s = w.makeSource(1);
    TraceRecord r;
    for (int i = 0; i < 2000; ++i) {
        ASSERT_TRUE(s->next(r));
        EXPECT_EQ(r.type, AccessType::Read);
    }
}

namespace
{

/** Every record of section @p stream of @p path. */
std::vector<TraceRecord>
readSection(const std::string &path, std::size_t stream = 0)
{
    FileStreamSource src(path, stream);
    return collect(src);
}

} // namespace

TEST(TraceFile, RoundTrip)
{
    std::vector<TraceRecord> recs;
    recs.push_back({AccessType::Read, 0x123456789aull});
    recs.push_back({AccessType::Write, 0x20});
    recs.push_back({AccessType::Read, 0});

    const std::string path = "/tmp/jetty_test_trace.bin";
    writeTraceFile(path, recs);
    const auto back = readSection(path);
    ASSERT_EQ(back.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(back[i].addr, recs[i].addr);
        EXPECT_EQ(back[i].type, recs[i].type);
    }
    std::remove(path.c_str());
}

TEST(TraceFile, CollectAndReplay)
{
    Workload w(tinyProfile(), 2);
    auto s = w.makeSource(0);
    const auto recs = collect(*s, 100);
    EXPECT_EQ(recs.size(), 100u);

    const std::string path = "/tmp/jetty_test_trace2.bin";
    writeTraceFile(path, recs);
    VectorTraceSource replay(readSection(path));
    auto fresh = w.makeSource(0);
    TraceRecord a, b;
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(replay.next(a));
        ASSERT_TRUE(fresh->next(b));
        EXPECT_EQ(a.addr, b.addr);
    }
    std::remove(path.c_str());
}

TEST(TraceFile, RejectsMissingFile)
{
    EXPECT_EXIT(readSection("/tmp/definitely_missing_jetty_trace.bin"),
                ::testing::ExitedWithCode(1), "cannot open");
    EXPECT_EXIT(readTraceFileInfo("/tmp/definitely_missing_jetty_trace.bin"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceFile, V1MagicRejectedWithRecaptureDiagnostic)
{
    // A version-1 file (magic, u32 count, u32 reserved, one record) is
    // refused by name rather than read or reported as unknown.
    const std::string path = "/tmp/jetty_test_trace_v1.bin";
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const unsigned char bytes[24] = {'J', 'T', 'T', 'R', 'A', 'C',
                                         'E', '1', 1,   0,   0,   0};
        ASSERT_EQ(std::fwrite(bytes, 1, sizeof bytes, f), sizeof bytes);
        std::fclose(f);
    }
    EXPECT_EXIT(readTraceFileInfo(path), ::testing::ExitedWithCode(1),
                "JTTRACE1 is no longer read; re-capture with this build");
    std::remove(path.c_str());
}

TEST(TraceFile, CurrentWriterProducesV2)
{
    const std::string path = "/tmp/jetty_test_trace_v2.bin";
    writeTraceFile(path, {{AccessType::Read, 0x40}});
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char magic[8] = {};
    ASSERT_EQ(std::fread(magic, 1, 8, f), 8u);
    std::fclose(f);
    EXPECT_EQ(std::memcmp(magic, "JTTRACE2", 8), 0);
    EXPECT_EQ(readTraceFileInfo(path).totalRecords(), 1u);
    std::remove(path.c_str());
}

TEST(TraceFile, EmptyTraceRoundTrips)
{
    const std::string path = "/tmp/jetty_test_trace_empty.bin";
    writeTraceFile(path, {});
    EXPECT_TRUE(readSection(path).empty());

    FileStreamSource src(path);
    EXPECT_EQ(src.records(), 0u);
    TraceRecord r;
    EXPECT_FALSE(src.next(r));
    std::remove(path.c_str());
}

TEST(TraceFile, Max56BitAddressRoundTrips)
{
    const std::string path = "/tmp/jetty_test_trace_max.bin";
    writeTraceFile(path, {{AccessType::Write, kMaxTraceAddr}});
    const auto back = readSection(path);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].addr, kMaxTraceAddr);
    EXPECT_EQ(back[0].type, AccessType::Write);
    std::remove(path.c_str());
}

TEST(TraceFile, RejectsAddressBeyond56Bits)
{
    EXPECT_EXIT(writeTraceFile("/tmp/jetty_test_trace_wide.bin",
                               {{AccessType::Read, kMaxTraceAddr + 1}}),
                ::testing::ExitedWithCode(1), "56-bit");
}

TEST(TraceFile, MultiStreamSectionsRoundTrip)
{
    const std::string path = "/tmp/jetty_test_trace_multi.bin";
    {
        TraceFileWriter writer(path, 3);
        for (unsigned s = 0; s < 3; ++s) {
            std::vector<TraceRecord> recs;
            for (unsigned i = 0; i <= s; ++i)
                recs.push_back({AccessType::Read,
                                Addr{0x1000} * (s + 1) + i * 32});
            writer.append(recs);
            writer.endStream();
        }
        writer.close();
        EXPECT_EQ(writer.recordsWritten(), 6u);
    }

    const auto info = readTraceFileInfo(path);
    ASSERT_EQ(info.streams(), 3u);
    for (unsigned s = 0; s < 3; ++s) {
        const auto recs = readSection(path, s);
        ASSERT_EQ(recs.size(), s + 1u) << s;
        EXPECT_EQ(recs[0].addr, Addr{0x1000} * (s + 1)) << s;
    }
    std::remove(path.c_str());
}

TEST(TraceFile, CorruptHeaderCountRejectedBeforeAllocation)
{
    // A header claiming ~2^64 records over an 8-record body must fail
    // the size check before anything trusts the count: count * 8 would
    // wrap, so the check has to stay overflow-safe.
    const std::string path = "/tmp/jetty_test_trace_corrupt.bin";
    std::vector<TraceRecord> recs(8, {AccessType::Read, 0x100});
    writeTraceFile(path, recs);
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        const unsigned char bogus[8] = {0xff, 0xff, 0xff, 0xff,
                                        0xff, 0xff, 0xff, 0xff};
        ASSERT_EQ(std::fseek(f, 16, SEEK_SET), 0);  // section 0's count
        ASSERT_EQ(std::fwrite(bogus, 1, 8, f), 8u);
        std::fclose(f);
    }
    EXPECT_EXIT(readTraceFileInfo(path), ::testing::ExitedWithCode(1),
                "exceeds the file size");
    EXPECT_EXIT(readSection(path), ::testing::ExitedWithCode(1),
                "exceeds the file size");
    std::remove(path.c_str());
}

TEST(TraceFile, TruncatedFileRejected)
{
    const std::string path = "/tmp/jetty_test_trace_trunc.bin";
    const std::string cut = "/tmp/jetty_test_trace_cut.bin";
    std::vector<TraceRecord> recs(16, {AccessType::Write, 0x2000});
    writeTraceFile(path, recs);

    // Copy all but the last 5 bytes: a mid-record truncation.
    {
        std::FILE *in = std::fopen(path.c_str(), "rb");
        std::FILE *out = std::fopen(cut.c_str(), "wb");
        ASSERT_NE(in, nullptr);
        ASSERT_NE(out, nullptr);
        std::vector<unsigned char> bytes(4096);
        const std::size_t n = std::fread(bytes.data(), 1, bytes.size(), in);
        ASSERT_GT(n, 5u);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, n - 5, out), n - 5);
        std::fclose(in);
        std::fclose(out);
    }
    EXPECT_EXIT(readTraceFileInfo(cut), ::testing::ExitedWithCode(1),
                "exceeds the file size|inconsistent");
    EXPECT_EXIT(FileStreamSource{cut}, ::testing::ExitedWithCode(1),
                "exceeds the file size|inconsistent");
    std::remove(path.c_str());
    std::remove(cut.c_str());
}

namespace
{

/**
 * The nextBatch delivery contract: whatever mix of batch sizes a
 * consumer uses, the records are exactly the ones repeated next() calls
 * produce. @p make must return a fresh, equivalent source per call.
 */
void
expectBatchEquivalence(const std::function<TraceSourcePtr()> &make)
{
    auto scalar_src = make();
    std::vector<TraceRecord> scalar;
    TraceRecord r;
    while (scalar_src->next(r))
        scalar.push_back(r);
    ASSERT_GT(scalar.size(), 0u);

    for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                    std::size_t{64}, scalar.size() + 7}) {
        auto src = make();
        std::vector<TraceRecord> got;
        std::vector<TraceRecord> buf(batch);
        std::size_t n;
        while ((n = src->nextBatch(buf.data(), batch)) > 0) {
            got.insert(got.end(), buf.begin(),
                       buf.begin() + static_cast<std::ptrdiff_t>(n));
            if (n < batch)
                break;  // short count = exhausted
        }
        ASSERT_EQ(got.size(), scalar.size()) << "batch " << batch;
        for (std::size_t i = 0; i < scalar.size(); ++i) {
            ASSERT_EQ(got[i].addr, scalar[i].addr)
                << "batch " << batch << " record " << i;
            ASSERT_EQ(got[i].type, scalar[i].type)
                << "batch " << batch << " record " << i;
        }
    }
}

} // namespace

TEST(NextBatch, VectorSourceMatchesScalarDelivery)
{
    std::vector<TraceRecord> recs;
    for (unsigned i = 0; i < 257; ++i)
        recs.push_back({i % 3 == 0 ? AccessType::Write : AccessType::Read,
                        Addr{0x8000} + i * 4});
    expectBatchEquivalence(
        [&] { return std::make_unique<VectorTraceSource>(recs); });
}

TEST(NextBatch, SyntheticSourceMatchesScalarDelivery)
{
    const Workload w(tinyProfile(), 4);
    expectBatchEquivalence([&] { return w.makeSource(1); });
}

TEST(NextBatch, FileStreamSourceMatchesScalarDelivery)
{
    const std::string path = "/tmp/jetty_test_batch_file.bin";
    Workload w(tinyProfile(), 2);
    {
        auto src = w.makeSource(0);
        writeTraceFile(path, collect(*src, 1000));
    }
    // A chunk size that never divides the batch sizes exercises the
    // refill boundaries inside nextBatch.
    expectBatchEquivalence(
        [&] { return std::make_unique<FileStreamSource>(path, 0, 37); });
    std::remove(path.c_str());
}

TEST(FileStreamSource, StreamsWholeFileThroughSmallChunks)
{
    const std::string path = "/tmp/jetty_test_stream_chunks.bin";
    Workload w(tinyProfile(), 2);
    std::vector<TraceRecord> recs;
    {
        auto src = w.makeSource(1);
        recs = collect(*src, 500);
        writeTraceFile(path, recs);
    }

    FileStreamSource src(path, 0, 7);  // 7-record chunks over 500 records
    EXPECT_EQ(src.records(), 500u);
    TraceRecord r;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        ASSERT_TRUE(src.next(r)) << i;
        ASSERT_EQ(r.addr, recs[i].addr) << i;
    }
    EXPECT_FALSE(src.next(r));
    std::remove(path.c_str());
}

TEST(FileStreamSource, ChunkArithmeticHandlesBeyond4GiRecords)
{
    // The v1 format's u32 count capped traces at 4 Gi records; the v2
    // chunking math must address records past that boundary in 64 bits.
    const std::uint64_t big = (std::uint64_t{1} << 32) + 123;
    const std::uint64_t section = 24;  // one-stream v2 header size
    EXPECT_EQ(FileStreamSource::recordByteOffset(section, big),
              section + big * kTraceRecordBytes);
    EXPECT_GT(FileStreamSource::recordByteOffset(section, big),
              std::uint64_t{1} << 35);  // would wrap in 32-bit math

    // Mid-stream refills take full chunks; the tail takes the remainder.
    EXPECT_EQ(FileStreamSource::chunkRecordsAt(big, 0, 65536), 65536u);
    EXPECT_EQ(FileStreamSource::chunkRecordsAt(big, big - 10, 65536), 10u);
    EXPECT_EQ(FileStreamSource::chunkRecordsAt(big, big, 65536), 0u);
}

TEST(FileStreamSource, SparseHugeCaptureSeeksBeyond4Gi)
{
    // A real JTTRACE2 file whose first section holds > 4 Gi records, laid
    // out sparsely: only the header and the second section occupy disk.
    // Opening the second section seeks to a genuine > 32 GiB file offset
    // through the streaming source.
    const std::string path = "/tmp/jetty_test_sparse_huge.bin";
    const std::uint64_t huge = (std::uint64_t{1} << 32) + 8;
    const std::uint64_t header = 32;  // magic, two u32s, two u64 counts
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const char magic[8] = {'J', 'T', 'T', 'R', 'A', 'C', 'E', '2'};
        // Two stream sections, reserved word zero (explicit little-endian).
        const unsigned char head[8] = {2, 0, 0, 0, 0, 0, 0, 0};
        ASSERT_EQ(std::fwrite(magic, 1, 8, f), 8u);
        ASSERT_EQ(std::fwrite(head, 1, 8, f), 8u);
        for (const std::uint64_t count : {huge, std::uint64_t{2}}) {
            unsigned char le[8];
            for (int i = 0; i < 8; ++i) {
                le[i] =
                    static_cast<unsigned char>((count >> (8 * i)) & 0xff);
            }
            ASSERT_EQ(std::fwrite(le, 1, 8, f), 8u);
        }
        // Seek past the huge section and write the second one; the
        // filesystem backs the hole with nothing.
        const std::uint64_t second =
            FileStreamSource::recordByteOffset(header, huge);
        if (::fseeko(f, static_cast<off_t>(second), SEEK_SET) != 0) {
            std::fclose(f);
            std::remove(path.c_str());
            GTEST_SKIP() << "filesystem lacks sparse-file support";
        }
        unsigned char rec[2 * kTraceRecordBytes];
        encodeTraceRecord({AccessType::Read, 0x123440}, rec);
        encodeTraceRecord({AccessType::Write, 0xabcdef},
                          rec + kTraceRecordBytes);
        if (std::fwrite(rec, 1, sizeof rec, f) != sizeof rec) {
            std::fclose(f);
            std::remove(path.c_str());
            GTEST_SKIP() << "filesystem rejected the sparse extent";
        }
        std::fclose(f);
    }

    const auto info = readTraceFileInfo(path);
    ASSERT_EQ(info.counts[0], huge);
    EXPECT_GT(info.offsets[1], std::uint64_t{1} << 35);

    FileStreamSource src(path, 1);
    EXPECT_EQ(src.records(), 2u);
    TraceRecord r;
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.addr, 0x123440u);
    EXPECT_EQ(r.type, AccessType::Read);
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.addr, 0xabcdefu);
    EXPECT_EQ(r.type, AccessType::Write);
    EXPECT_FALSE(src.next(r));  // exactly two records, then the end
    std::remove(path.c_str());
}

TEST(FileStreamSource, MakeFileSourcesCoversTheReplayRules)
{
    const std::string multi = "/tmp/jetty_test_sources_multi.bin";
    const std::string single = "/tmp/jetty_test_sources_single.bin";
    {
        TraceFileWriter writer(multi, 2);
        writer.append({{AccessType::Read, 0x100}});
        writer.endStream();
        writer.append({{AccessType::Write, 0x200}});
        writer.endStream();
        writer.close();
    }
    writeTraceFile(single, {{AccessType::Read, 0x300}});

    // One multi-section file: section p feeds processor p.
    auto per_proc = makeFileSources({multi}, 2);
    ASSERT_EQ(per_proc.size(), 2u);
    TraceRecord r;
    ASSERT_TRUE(per_proc[1]->next(r));
    EXPECT_EQ(r.addr, 0x200u);

    // One single-section file: clones everywhere.
    auto clones = makeFileSources({single}, 3);
    ASSERT_EQ(clones.size(), 3u);
    for (auto &s : clones) {
        ASSERT_TRUE(s->next(r));
        EXPECT_EQ(r.addr, 0x300u);
    }

    // Mismatched stream/processor counts are rejected.
    EXPECT_EXIT(makeFileSources({multi}, 4), ::testing::ExitedWithCode(1),
                "2 streams");
    std::remove(multi.c_str());
    std::remove(single.c_str());
}
