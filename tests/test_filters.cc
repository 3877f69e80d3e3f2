/**
 * @file
 * Unit tests for the JETTY filter family: exclude, vector-exclude,
 * include, hybrid, the spec parser, storage accounting and energy costs.
 */

#include <gtest/gtest.h>

#include "core/exclude_jetty.hh"
#include "core/filter_spec.hh"
#include "core/hybrid_jetty.hh"
#include "core/include_jetty.hh"
#include "core/null_filter.hh"

using namespace jetty;
using namespace jetty::filter;

namespace
{

AddressMap
baseMap()
{
    AddressMap amap;
    amap.unitOffsetBits = 5;   // 32B units
    amap.blockOffsetBits = 6;  // 64B blocks
    amap.physAddrBits = 40;
    amap.l2CapacityUnits = 32768;
    return amap;
}

constexpr Addr kBlock = 0x123440;   // block-aligned
constexpr Addr kUnit0 = kBlock;     // first subblock
constexpr Addr kUnit1 = kBlock + 32;

} // namespace

// -------------------------------------------------------- NullFilter ----

TEST(NullFilter, NeverFilters)
{
    NullFilter f;
    EXPECT_FALSE(f.probe(0x1000));
    f.onSnoopMiss(0x1000, false);
    EXPECT_FALSE(f.probe(0x1000));
    EXPECT_EQ(f.storage().totalBits(), 0u);
    EXPECT_EQ(f.name(), "NULL");
}

// ------------------------------------------------------- ExcludeJetty ----

TEST(ExcludeJetty, FiltersAfterWholeBlockMiss)
{
    ExcludeJetty ej({32, 4}, baseMap());
    EXPECT_FALSE(ej.probe(kUnit0));
    ej.onSnoopMiss(kUnit0, /*blockPresent=*/false);
    EXPECT_TRUE(ej.probe(kUnit0));
}

TEST(ExcludeJetty, SubblockSiblingFiltered)
{
    // The paper's key locality source: a whole-block miss on one subblock
    // lets the EJ filter the follow-up snoop to the sibling.
    ExcludeJetty ej({32, 4}, baseMap());
    ej.onSnoopMiss(kUnit0, false);
    EXPECT_TRUE(ej.probe(kUnit1));
}

TEST(ExcludeJetty, TagMatchingMissNotRecorded)
{
    // When some other subblock of the block is valid locally, recording
    // "whole block absent" would be unsafe, so nothing is learned.
    ExcludeJetty ej({32, 4}, baseMap());
    ej.onSnoopMiss(kUnit0, /*blockPresent=*/true);
    EXPECT_FALSE(ej.probe(kUnit0));
    EXPECT_FALSE(ej.probe(kUnit1));
}

TEST(ExcludeJetty, FillClearsEntry)
{
    ExcludeJetty ej({32, 4}, baseMap());
    ej.onSnoopMiss(kUnit0, false);
    ej.onFill(kUnit1);  // any unit of the block voids the guarantee
    EXPECT_FALSE(ej.probe(kUnit0));
    EXPECT_FALSE(ej.probe(kUnit1));
}

TEST(ExcludeJetty, UnrelatedFillKeepsEntry)
{
    ExcludeJetty ej({32, 4}, baseMap());
    ej.onSnoopMiss(kUnit0, false);
    ej.onFill(0x999940);
    EXPECT_TRUE(ej.probe(kUnit0));
}

TEST(ExcludeJetty, LruReplacementWithinSet)
{
    AddressMap amap = baseMap();
    ExcludeJetty ej({4, 2}, amap);  // tiny: 4 sets x 2 ways
    // Three blocks mapping to the same set (stride = sets * blockBytes).
    const Addr stride = 4 * 64;
    ej.onSnoopMiss(0 * stride, false);
    ej.onSnoopMiss(1 * stride, false);
    ej.probe(0 * stride);  // refresh entry 0
    ej.onSnoopMiss(2 * stride, false);  // evicts entry for 1*stride
    EXPECT_TRUE(ej.probe(0 * stride));
    EXPECT_FALSE(ej.probe(1 * stride));
    EXPECT_TRUE(ej.probe(2 * stride));
}

TEST(ExcludeJetty, StorageAndName)
{
    ExcludeJetty ej({32, 4}, baseMap());
    // Tag bits: 40 - 6 (block) - 5 (sets) = 29; +1 present bit.
    EXPECT_EQ(ej.storedTagBits(), 29u);
    EXPECT_EQ(ej.storage().presenceBits, 32u * 4u * 30u);
    EXPECT_EQ(ej.storage().counterBits, 0u);
    EXPECT_EQ(ej.name(), "EJ-32x4");
}

TEST(ExcludeJetty, EnergyCostsSane)
{
    ExcludeJetty ej({32, 4}, baseMap());
    const auto c = ej.energyCosts(energy::Technology::micron180());
    EXPECT_GT(c.probe, 0.0);
    EXPECT_GT(c.snoopAlloc, 0.0);
    EXPECT_GT(c.fillUpdate, c.probe);  // probe + write
    EXPECT_DOUBLE_EQ(c.evictUpdate, 0.0);
}

// ------------------------------------------------- VectorExcludeJetty ----

TEST(VectorExcludeJetty, PerBlockBits)
{
    ExcludeJetty vej({32, 4, 8}, baseMap());
    vej.onSnoopMiss(kUnit0, false);
    EXPECT_TRUE(vej.probe(kUnit0));
    EXPECT_TRUE(vej.probe(kUnit1));  // same block
    // The next block in the chunk is not yet known absent.
    EXPECT_FALSE(vej.probe(kBlock + 64));
}

TEST(VectorExcludeJetty, SpatialAccumulation)
{
    ExcludeJetty vej({32, 4, 8}, baseMap());
    // Record all 8 blocks of one chunk.
    const Addr chunk = 0x40000;  // 8*64 aligned
    for (int b = 0; b < 8; ++b)
        vej.onSnoopMiss(chunk + b * 64, false);
    for (int b = 0; b < 8; ++b)
        EXPECT_TRUE(vej.probe(chunk + b * 64));
}

TEST(VectorExcludeJetty, FillClearsOnlyItsBlockBit)
{
    ExcludeJetty vej({32, 4, 8}, baseMap());
    const Addr chunk = 0x40000;
    vej.onSnoopMiss(chunk, false);
    vej.onSnoopMiss(chunk + 64, false);
    vej.onFill(chunk + 64);
    EXPECT_TRUE(vej.probe(chunk));
    EXPECT_FALSE(vej.probe(chunk + 64));
}

TEST(VectorExcludeJetty, EntryDiesWhenVectorEmpties)
{
    ExcludeJetty vej({4, 1, 4}, baseMap());
    const Addr chunk = 0x40000;
    vej.onSnoopMiss(chunk, false);
    vej.onFill(chunk);
    EXPECT_FALSE(vej.probe(chunk));
    // The way is reusable for another chunk without eviction.
    vej.onSnoopMiss(chunk + 4 * 64 * 4, false);
    EXPECT_TRUE(vej.probe(chunk + 4 * 64 * 4));
}

TEST(VectorExcludeJetty, BlockPresentMissNotRecorded)
{
    ExcludeJetty vej({32, 4, 8}, baseMap());
    vej.onSnoopMiss(kUnit0, true);
    EXPECT_FALSE(vej.probe(kUnit0));
}

TEST(VectorExcludeJetty, NameAndStorage)
{
    ExcludeJetty vej({32, 4, 8}, baseMap());
    EXPECT_EQ(vej.name(), "VEJ-32x4-8");
    // Tag bits: 40 - 6 - 3 (vector) - 5 (sets) = 26; +8 vector bits.
    EXPECT_EQ(vej.storedTagBits(), 26u);
    EXPECT_EQ(vej.storage().presenceBits, 32u * 4u * 34u);
}

TEST(VectorExcludeJettyDeathTest, BadVectorWidthIsFatal)
{
    // Width 0 must not fall back to the plain EJ the config's 0 means.
    EXPECT_EXIT(makeFilter("VEJ-32x4-0", baseMap()),
                ::testing::ExitedWithCode(1), "bad geometry");
    EXPECT_EXIT(makeFilter("VEJ-32x4-3", baseMap()),
                ::testing::ExitedWithCode(1), "bad geometry");
    EXPECT_EQ(makeFilter("VEJ-32x4-1", baseMap())->name(), "VEJ-32x4-1");
}

TEST(VectorExcludeJetty, LruReplacementWithinSet)
{
    // One set of two ways, four blocks per entry: chunk k covers blocks
    // 4k..4k+3, and every chunk maps to the single set.
    const Addr chunk = 4 * 64;
    const auto vej = [] {
        return ExcludeJetty({1, 2, 4}, baseMap());
    };

    // Without a free way the least recently used entry goes, and a
    // probe hit counts as a use: A is refreshed, so C evicts B.
    {
        auto f = vej();
        f.onSnoopMiss(0 * chunk, false);  // A
        f.onSnoopMiss(1 * chunk, false);  // B
        f.probe(0 * chunk);
        f.onSnoopMiss(2 * chunk, false);  // C
        EXPECT_TRUE(f.probe(0 * chunk));
        EXPECT_FALSE(f.probe(1 * chunk));
        EXPECT_TRUE(f.probe(2 * chunk));
    }
    // A probe that hits the tag but finds the block's bit clear is a
    // use too (A's second block is not recorded, yet A is refreshed).
    {
        auto f = vej();
        f.onSnoopMiss(0 * chunk, false);
        f.onSnoopMiss(1 * chunk, false);
        EXPECT_FALSE(f.probe(0 * chunk + 64));
        f.onSnoopMiss(2 * chunk, false);
        EXPECT_TRUE(f.probe(0 * chunk));
        EXPECT_FALSE(f.probe(1 * chunk));
    }
    // An allocation that hits an existing entry (another block of A's
    // chunk) is a use as well.
    {
        auto f = vej();
        f.onSnoopMiss(0 * chunk, false);
        f.onSnoopMiss(1 * chunk, false);
        f.onSnoopMiss(0 * chunk + 64, false);
        f.onSnoopMiss(2 * chunk, false);
        EXPECT_TRUE(f.probe(0 * chunk + 64));
        EXPECT_FALSE(f.probe(1 * chunk));
        EXPECT_TRUE(f.probe(2 * chunk));
    }
    // A free way is preferred over the LRU one: A is refreshed and then
    // dies when its only block is filled, so C takes A's way although B
    // is the least recently used entry.
    {
        auto f = vej();
        f.onSnoopMiss(0 * chunk, false);
        f.onSnoopMiss(1 * chunk, false);
        f.probe(0 * chunk);
        f.onFill(0 * chunk);
        f.onSnoopMiss(2 * chunk, false);
        EXPECT_TRUE(f.probe(1 * chunk));
        EXPECT_TRUE(f.probe(2 * chunk));
        EXPECT_FALSE(f.probe(0 * chunk));
    }
}

TEST(VectorExcludeJetty, DifferentIndexingThanEj)
{
    // Equal sets/assoc EJ and VEJ slice the address differently (the
    // paper's thrashing observation): two blocks that share an EJ set may
    // land in different VEJ sets and vice versa.
    AddressMap amap = baseMap();
    ExcludeJetty ej({32, 4}, amap);
    ExcludeJetty vej({32, 4, 8}, amap);
    // Blocks 0 and 32 blocks apart share an EJ set but differ in VEJ set.
    const Addr a = 0, b = 32 * 64;
    ej.onSnoopMiss(a, false);
    ej.onSnoopMiss(b, false);
    EXPECT_TRUE(ej.probe(a));
    EXPECT_TRUE(ej.probe(b));
    vej.onSnoopMiss(a, false);
    vej.onSnoopMiss(b, false);
    EXPECT_TRUE(vej.probe(a));
    EXPECT_TRUE(vej.probe(b));
}

// ------------------------------------------------------- IncludeJetty ----

TEST(IncludeJetty, EmptyFiltersEverything)
{
    IncludeJetty ij({10, 4, 7}, baseMap());
    EXPECT_TRUE(ij.probe(0x0));
    EXPECT_TRUE(ij.probe(0xdeadbee0));
}

TEST(IncludeJetty, FilledUnitNeverFiltered)
{
    IncludeJetty ij({10, 4, 7}, baseMap());
    ij.onFill(kUnit0);
    EXPECT_FALSE(ij.probe(kUnit0));
}

TEST(IncludeJetty, EvictRestoresFiltering)
{
    IncludeJetty ij({10, 4, 7}, baseMap());
    ij.onFill(kUnit0);
    ij.onEvict(kUnit0);
    EXPECT_TRUE(ij.probe(kUnit0));
}

TEST(IncludeJetty, CountersHandleMultiplicity)
{
    IncludeJetty ij({10, 4, 7}, baseMap());
    ij.onFill(kUnit0);
    ij.onFill(kUnit0 + (1ull << 36));  // far away; may share some slices
    ij.onEvict(kUnit0 + (1ull << 36));
    EXPECT_FALSE(ij.probe(kUnit0));  // first fill still protected
}

TEST(IncludeJetty, BlockGranularIndexSharesSubblocks)
{
    // Paper indexing starts above the block offset: both subblocks of a
    // block index identically, so the sibling of a cached unit is never
    // filtered (it is a superset at block grain).
    IncludeJetty ij({10, 4, 7}, baseMap());
    ij.onFill(kUnit0);
    EXPECT_FALSE(ij.probe(kUnit1));
}

TEST(IncludeJetty, UnitGranularIndexSeparatesSubblocks)
{
    IncludeJettyConfig cfg{10, 4, 7, IjIndexBase::Unit};
    IncludeJetty ij(cfg, baseMap());
    ij.onFill(kUnit0);
    // With unit-granular indexing the sibling differs in the lowest index
    // bit, so at least one slice can be empty for it.
    EXPECT_TRUE(ij.probe(kUnit1));
    EXPECT_EQ(ij.name(), "IJ-10x4x7u");
}

TEST(IncludeJetty, IndexSlices)
{
    IncludeJetty ij({10, 4, 7}, baseMap());
    // Index i covers bits [6 + 7i, 16 + 7i) of the address.
    const Addr a = 0x3ffull << 6;  // bits 6..16 set
    EXPECT_EQ(ij.indexOf(a, 0), 0x3ffull);
    EXPECT_EQ(ij.indexOf(a, 1), 0x3ffull >> 7);
    EXPECT_EQ(ij.indexOf(a, 2), 0ull);
}

TEST(IncludeJetty, SupersetProperty)
{
    // Whatever the fill set, no member of it may be filtered.
    IncludeJetty ij({8, 4, 7}, baseMap());
    std::vector<Addr> filled;
    for (Addr a = 0; a < 300; ++a)
        filled.push_back(0x10000000 + a * 32);
    for (Addr a : filled)
        ij.onFill(a);
    for (Addr a : filled)
        EXPECT_FALSE(ij.probe(a));
}

TEST(IncludeJetty, CounterWidthPessimistic)
{
    IncludeJetty ij({10, 4, 7}, baseMap());
    // 32768 units -> 16 bits (we count units; paper's 14 bits counted
    // 16K blocks).
    EXPECT_EQ(ij.counterBits(), 16u);
}

TEST(IncludeJetty, PbitShapesMatchTable4)
{
    const AddressMap amap = baseMap();
    std::uint64_t r, c;
    IncludeJetty({10, 4, 7}, amap).pbitArrayShape(r, c);
    EXPECT_EQ(r, 32u);
    EXPECT_EQ(c, 32u);
    IncludeJetty({9, 4, 7}, amap).pbitArrayShape(r, c);
    EXPECT_EQ(r, 16u);
    EXPECT_EQ(c, 32u);
    IncludeJetty({8, 4, 7}, amap).pbitArrayShape(r, c);
    EXPECT_EQ(r, 16u);
    EXPECT_EQ(c, 16u);
}

TEST(IncludeJetty, StorageScalesWithConfig)
{
    const AddressMap amap = baseMap();
    const auto big = IncludeJetty({10, 4, 7}, amap).storage();
    const auto small = IncludeJetty({6, 5, 6}, amap).storage();
    EXPECT_EQ(big.presenceBits, 4u * 1024u);
    EXPECT_EQ(small.presenceBits, 5u * 64u);
    EXPECT_GT(big.totalBytes(), small.totalBytes() * 8);
}

TEST(IncludeJettyDeathTest, CounterUnderflowPanics)
{
    IncludeJetty ij({8, 4, 7}, baseMap());
    EXPECT_DEATH(ij.onEvict(kUnit0), "underflow");
}

// -------------------------------------------------------- HybridJetty ----

TEST(HybridJetty, EitherComponentFilters)
{
    const AddressMap amap = baseMap();
    HybridJetty hj(std::make_unique<IncludeJetty>(
                       IncludeJettyConfig{10, 4, 7}, amap),
                   std::make_unique<ExcludeJetty>(
                       ExcludeJettyConfig{32, 4}, amap));
    // Empty IJ filters everything.
    EXPECT_TRUE(hj.probe(kUnit0));
    // Make the IJ agnostic about this block, then rely on the EJ.
    hj.onFill(kUnit0);
    EXPECT_FALSE(hj.probe(kUnit0));
    hj.onEvict(kUnit0);
    EXPECT_TRUE(hj.probe(kUnit0));
}

TEST(HybridJetty, EjBacksUpIjLeaks)
{
    const AddressMap amap = baseMap();
    auto ij_owned = std::make_unique<IncludeJetty>(
        IncludeJettyConfig{6, 2, 6}, amap);
    HybridJetty hj(std::move(ij_owned),
                   std::make_unique<ExcludeJetty>(
                       ExcludeJettyConfig{32, 4}, amap));

    // Saturate the IJ's view of this address's slices with other fills so
    // the IJ cannot filter kUnit0.
    auto &ij = hj.includePart();
    for (int i = 0; i < 4000; ++i) {
        const Addr scatter =
            (static_cast<Addr>(i) * 2654435761ull) & 0xFFFE0ull;
        ij.onFill(0x20000000 + scatter);
    }
    ASSERT_FALSE(hj.probe(kUnit0));

    // The unfiltered miss is recorded by the EJ and filters next time.
    hj.onSnoopMiss(kUnit0, false);
    EXPECT_TRUE(hj.probe(kUnit0));
}

TEST(HybridJetty, AggregatesStorageAndEnergy)
{
    const AddressMap amap = baseMap();
    auto ij = std::make_unique<IncludeJetty>(IncludeJettyConfig{10, 4, 7},
                                             amap);
    auto ej = std::make_unique<ExcludeJetty>(ExcludeJettyConfig{32, 4},
                                             amap);
    const auto ij_storage = ij->storage();
    const auto ej_storage = ej->storage();
    const auto tech = energy::Technology::micron180();
    const auto ij_costs = ij->energyCosts(tech);
    const auto ej_costs = ej->energyCosts(tech);

    HybridJetty hj(std::move(ij), std::move(ej));
    EXPECT_EQ(hj.storage().totalBits(),
              ij_storage.totalBits() + ej_storage.totalBits());
    EXPECT_DOUBLE_EQ(hj.energyCosts(tech).probe,
                     ij_costs.probe + ej_costs.probe);
    EXPECT_EQ(hj.name(), "HJ(IJ-10x4x7,EJ-32x4)");
}

// -------------------------------------------------------- Spec parser ----

TEST(FilterSpec, ParsesAllPaperConfigs)
{
    const AddressMap amap = baseMap();
    for (const auto &group :
         {paperExcludeSpecs(), paperVectorExcludeSpecs(),
          paperIncludeSpecs(), paperHybridSpecs()}) {
        for (const auto &spec : group) {
            EXPECT_TRUE(isValidFilterSpec(spec)) << spec;
            auto f = makeFilter(spec, amap);
            EXPECT_EQ(f->name(), spec);
        }
    }
}

TEST(FilterSpec, ParsesNull)
{
    auto f = makeFilter("null", baseMap());
    EXPECT_EQ(f->name(), "NULL");
}

TEST(FilterSpec, ParsesUnitVariant)
{
    auto f = makeFilter("IJ-8x4x7u", baseMap());
    EXPECT_EQ(f->name(), "IJ-8x4x7u");
}

TEST(FilterSpec, RejectsGarbage)
{
    EXPECT_FALSE(isValidFilterSpec(""));
    EXPECT_FALSE(isValidFilterSpec("EJ-32"));
    EXPECT_FALSE(isValidFilterSpec("EJ-axb"));
    EXPECT_FALSE(isValidFilterSpec("VEJ-32x4"));
    EXPECT_FALSE(isValidFilterSpec("IJ-10x4"));
    EXPECT_FALSE(isValidFilterSpec("HJ(IJ-10x4x7)"));
    EXPECT_FALSE(isValidFilterSpec("HJ(IJ-10x4x7,)"));
    EXPECT_FALSE(isValidFilterSpec("ZZ-1x2"));
}

TEST(FilterSpec, HybridComposesVej)
{
    auto f = makeFilter("HJ(IJ-9x4x7,VEJ-32x4-8)", baseMap());
    EXPECT_EQ(f->name(), "HJ(IJ-9x4x7,VEJ-32x4-8)");
}
