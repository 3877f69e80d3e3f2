/**
 * @file
 * Tests for atomic file publication (util/atomic_file.hh): the
 * invariant under test is that a file either appears complete at its
 * final path or does not appear at all — across success, abandonment,
 * and injected commit failure — and that the writers routed through it
 * (TraceFileWriter) inherit the same guarantee.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "trace/file_stream_source.hh"
#include "trace/trace_file.hh"
#include "trace/synthetic.hh"
#include "trace/apps.hh"
#include "util/atomic_file.hh"

using namespace jetty;

namespace
{

bool
fileExists(const std::string &path)
{
    struct stat st = {};
    return ::stat(path.c_str(), &st) == 0;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

} // namespace

TEST(AtomicFile, RoundTripPublishesExactBytes)
{
    const std::string path = ::testing::TempDir() + "jetty_atomic_rt.txt";
    std::remove(path.c_str());

    const std::string payload = "hello\natomic\nworld\n";
    util::writeFileAtomic(path, payload);
    EXPECT_EQ(slurp(path), payload);

    // Overwrite is also atomic: the new content replaces the old.
    util::writeFileAtomic(path, "second\n");
    EXPECT_EQ(slurp(path), "second\n");
    std::remove(path.c_str());
}

TEST(AtomicFile, UncommittedWriterLeavesNothingBehind)
{
    const std::string path = ::testing::TempDir() + "jetty_atomic_drop.txt";
    std::remove(path.c_str());
    std::string temp;
    {
        util::AtomicFile file(path);
        ASSERT_TRUE(file.stream() != nullptr) << file.error();
        temp = file.tempPath();
        std::fputs("half-written", file.stream());
        // No commit: the destructor must discard the temp file.
    }
    EXPECT_FALSE(fileExists(path));
    EXPECT_FALSE(fileExists(temp));
}

TEST(AtomicFile, AbortedWriterPreservesPriorContent)
{
    const std::string path = ::testing::TempDir() + "jetty_atomic_keep.txt";
    util::writeFileAtomic(path, "original\n");
    {
        util::AtomicFile file(path);
        ASSERT_TRUE(file.stream() != nullptr) << file.error();
        std::fputs("replacement that never lands", file.stream());
        file.abort();
    }
    EXPECT_EQ(slurp(path), "original\n");
    std::remove(path.c_str());
}

TEST(AtomicFile, InjectedCommitFailureNeverTearsTheFinalPath)
{
    // Simulated ENOSPC/short write at commit time: the error must be
    // reported, the temp file removed, and the final path untouched
    // (absent when new, prior content intact when overwriting).
    const std::string path = ::testing::TempDir() + "jetty_atomic_fail.txt";
    std::remove(path.c_str());
    util::setAtomicCommitFailureHook(
        [](const std::string &p) {
            return p.find("jetty_atomic_fail") != std::string::npos;
        });

    const std::string err = util::writeFileAtomicErr(path, "doomed");
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(fileExists(path));

    // Same failure while overwriting: the old bytes survive.
    util::setAtomicCommitFailureHook(nullptr);
    util::writeFileAtomic(path, "survivor\n");
    util::setAtomicCommitFailureHook(
        [](const std::string &p) {
            return p.find("jetty_atomic_fail") != std::string::npos;
        });
    const std::string err2 = util::writeFileAtomicErr(path, "doomed again");
    EXPECT_FALSE(err2.empty());
    EXPECT_EQ(slurp(path), "survivor\n");

    util::setAtomicCommitFailureHook(nullptr);
    std::remove(path.c_str());
}

TEST(AtomicFile, TraceWriterAbandonedMidCaptureLeavesNoFile)
{
    // A TraceFileWriter destroyed before close() models a writer killed
    // mid-publish: nothing readable-but-wrong may exist at the path.
    const std::string path = ::testing::TempDir() + "jetty_atomic_cap.jtt";
    std::remove(path.c_str());
    const trace::Workload workload(trace::appByName("lu"), 2, 0.01);
    {
        trace::TraceFileWriter writer(path, 2);
        auto src = workload.makeSource(0);
        writer.append(trace::collect(*src, 1000));
        writer.endStream();
        // Second stream never written, close() never called.
    }
    EXPECT_FALSE(fileExists(path));

    // The complete protocol still publishes a readable capture.
    {
        trace::TraceFileWriter writer(path, 2);
        for (unsigned p = 0; p < 2; ++p) {
            auto src = workload.makeSource(p);
            writer.append(trace::collect(*src, 1000));
            writer.endStream();
        }
        writer.close();
    }
    EXPECT_TRUE(fileExists(path));
    trace::FileStreamSource back(path, 0);
    EXPECT_EQ(trace::collect(back).size(), 1000u);
    std::remove(path.c_str());
}
