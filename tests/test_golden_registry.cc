/**
 * @file
 * Tests for the process-wide golden registry: a golden key is
 * computed once however many threads ask for it at once, blocks
 * are shared exactly where the golden reads the same values (DGEMM
 * across devices, clones of any kernel) and kept apart where it
 * does not (LavaMD's per-device particle count), and the registry
 * holds no block once the last workload holding it is gone.
 *
 * Each test uses its own input seeds, so blocks other tests of this
 * binary hold never turn an expected computation into a hit.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "kernels/clamr.hh"
#include "kernels/dgemm.hh"
#include "kernels/golden_registry.hh"
#include "kernels/hotspot.hh"
#include "kernels/lavamd.hh"
#include "obs/stats_registry.hh"

namespace radcrit
{
namespace
{

uint64_t
goldenCalls(const std::string &kernel)
{
    return StatsRegistry::global()
        .counter("kernel." + kernel + ".golden.calls")
        .value();
}

TEST(GoldenRegistryTest, ConcurrentAskersComputeOnce)
{
    GoldenRegistry registry;
    constexpr int threads = 8;
    std::atomic<int> computes{0};
    std::atomic<int> ready{0};
    std::vector<std::shared_ptr<const std::vector<int>>> got(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            // Release every thread at once so they race on the key.
            ready.fetch_add(1);
            while (ready.load() < threads)
                std::this_thread::yield();
            got[t] = registry.get<std::vector<int>>(
                "test.golden", "shared", [&] {
                    computes.fetch_add(1);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    return std::vector<int>(1024, 7);
                });
        });
    }
    for (auto &thread : pool)
        thread.join();

    EXPECT_EQ(computes.load(), 1);
    for (const auto &block : got) {
        ASSERT_NE(block, nullptr);
        EXPECT_EQ(block.get(), got[0].get());
        EXPECT_EQ((*block)[1023], 7);
    }
}

TEST(GoldenRegistryTest, DistinctKeysComputeSeparately)
{
    GoldenRegistry registry;
    int computes = 0;
    auto make = [&](int v) {
        ++computes;
        return v;
    };
    auto a = registry.get<int>("test.golden", "a", [&] {
        return make(1);
    });
    auto b = registry.get<int>("test.golden", "b", [&] {
        return make(2);
    });
    // Same key under another phase is another block.
    auto c = registry.get<int>("test.other", "a", [&] {
        return make(3);
    });
    EXPECT_EQ(computes, 3);
    EXPECT_EQ(*a, 1);
    EXPECT_EQ(*b, 2);
    EXPECT_EQ(*c, 3);
}

TEST(GoldenRegistryTest, BlockReleasedWithLastHolder)
{
    GoldenRegistry registry;
    int computes = 0;
    auto compute = [&] {
        ++computes;
        return std::vector<double>(4096, 1.0);
    };
    auto first = registry.get<std::vector<double>>("test.golden",
                                                   "k", compute);
    std::weak_ptr<const std::vector<double>> watch = first;
    auto second = registry.get<std::vector<double>>("test.golden",
                                                    "k", compute);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(first.get(), second.get());

    first.reset();
    EXPECT_FALSE(watch.expired());
    second.reset();
    EXPECT_TRUE(watch.expired());

    // With no holder left the key computes afresh.
    auto again = registry.get<std::vector<double>>("test.golden",
                                                   "k", compute);
    EXPECT_EQ(computes, 2);
    EXPECT_EQ(again->size(), 4096u);
}

TEST(GoldenRegistryTest, DgemmSharesOneBlockAcrossDevices)
{
    uint64_t before = goldenCalls("dgemm");
    Dgemm k40(makeK40(), 128, 1001);
    Dgemm phi(makeXeonPhi(), 128, 1001);
    EXPECT_EQ(goldenCalls("dgemm") - before, 1u);
    EXPECT_EQ(k40.goldenC().data(), phi.goldenC().data());
    EXPECT_EQ(k40.a().data(), phi.a().data());

    // Another seed or side is another golden.
    Dgemm seed(makeK40(), 128, 1002);
    Dgemm side(makeK40(), 192, 1001);
    EXPECT_EQ(goldenCalls("dgemm") - before, 3u);
    EXPECT_NE(seed.goldenC().data(), k40.goldenC().data());
    EXPECT_NE(side.goldenC().data(), k40.goldenC().data());
}

TEST(GoldenRegistryTest, LavaMdBlocksDifferPerDevice)
{
    uint64_t before = goldenCalls("lavamd");
    LavaMd k40(makeK40(), 3, 2001);
    LavaMd phi(makeXeonPhi(), 3, 2001);
    // The devices tune different particle counts per box, so the
    // same boxes/dim is two goldens.
    ASSERT_NE(k40.particlesPerBox(), phi.particlesPerBox());
    EXPECT_EQ(goldenCalls("lavamd") - before, 2u);
    EXPECT_NE(k40.goldenForce().data(), phi.goldenForce().data());

    // The paper-size label does not enter the golden.
    LavaMd relabelled(makeK40(), 3, 2001, 2, 4, 7);
    EXPECT_EQ(goldenCalls("lavamd") - before, 2u);
    EXPECT_EQ(relabelled.goldenForce().data(),
              k40.goldenForce().data());
}

TEST(GoldenRegistryTest, ClonesShareTheSourceBlock)
{
    uint64_t before_hotspot = goldenCalls("hotspot");
    uint64_t before_clamr = goldenCalls("clamr");

    Dgemm dgemm(makeK40(), 64, 3001);
    auto dgemm_clone = dgemm.clone();
    EXPECT_EQ(dynamic_cast<Dgemm &>(*dgemm_clone).goldenC().data(),
              dgemm.goldenC().data());

    LavaMd lavamd(makeK40(), 3, 3001);
    auto lavamd_clone = lavamd.clone();
    EXPECT_EQ(dynamic_cast<LavaMd &>(*lavamd_clone)
                  .goldenForce()
                  .data(),
              lavamd.goldenForce().data());

    HotSpot hotspot(makeK40(), 64, 8, 3001);
    auto hotspot_clone = hotspot.clone();
    EXPECT_EQ(dynamic_cast<HotSpot &>(*hotspot_clone)
                  .goldenTemp()
                  .data(),
              hotspot.goldenTemp().data());

    Clamr clamr(makeXeonPhi(), 64, 16, 3001);
    auto clamr_clone = clamr.clone();
    EXPECT_EQ(dynamic_cast<Clamr &>(*clamr_clone).goldenH().data(),
              clamr.goldenH().data());
    EXPECT_EQ(dynamic_cast<Clamr &>(*clamr_clone)
                  .amrCellSeries()
                  .data(),
              clamr.amrCellSeries().data());

    // Cloning never consults the registry.
    EXPECT_EQ(goldenCalls("hotspot") - before_hotspot, 1u);
    EXPECT_EQ(goldenCalls("clamr") - before_clamr, 1u);
}

TEST(GoldenRegistryTest, KernelGoldenRecomputedOnlyAfterRelease)
{
    uint64_t before = goldenCalls("hotspot");
    std::vector<float> bits;
    {
        HotSpot held(makeK40(), 64, 8, 4001);
        HotSpot again(makeXeonPhi(), 64, 8, 4001);
        EXPECT_EQ(goldenCalls("hotspot") - before, 1u);
        EXPECT_EQ(held.goldenTemp().data(),
                  again.goldenTemp().data());
        bits = held.goldenTemp();
    }
    // Both holders are gone: the next build computes afresh and
    // reproduces the same golden bits.
    HotSpot fresh(makeK40(), 64, 8, 4001);
    EXPECT_EQ(goldenCalls("hotspot") - before, 2u);
    EXPECT_EQ(fresh.goldenTemp(), bits);
}

} // namespace
} // namespace radcrit
