// Unit tests for quality metrics and the TOQ tuner.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "exec/launch.h"
#include "runtime/quality.h"
#include "runtime/tuner.h"
#include "support/error.h"
#include "vm/vm.h"

namespace paraprox::runtime {
namespace {

// ---- Metrics ----------------------------------------------------------------

TEST(QualityTest, PerfectMatchIsHundred)
{
    std::vector<float> v = {1.0f, -2.0f, 3.0f};
    EXPECT_DOUBLE_EQ(quality_percent(Metric::L1Norm, v, v), 100.0);
    EXPECT_DOUBLE_EQ(quality_percent(Metric::L2Norm, v, v), 100.0);
    EXPECT_DOUBLE_EQ(quality_percent(Metric::MeanRelativeError, v, v),
                     100.0);
}

TEST(QualityTest, L1NormMatchesHandComputation)
{
    std::vector<float> exact = {2.0f, 2.0f};
    std::vector<float> approx = {1.8f, 2.2f};
    // err = 0.4, ref = 4 -> 90%.
    EXPECT_NEAR(quality_percent(Metric::L1Norm, exact, approx), 90.0,
                1e-4);
}

TEST(QualityTest, L2NormMatchesHandComputation)
{
    std::vector<float> exact = {3.0f, 4.0f};
    std::vector<float> approx = {3.0f, 3.0f};
    // rel l2 err = 1/5 -> 80%.
    EXPECT_NEAR(quality_percent(Metric::L2Norm, exact, approx), 80.0,
                1e-4);
}

TEST(QualityTest, MreMatchesHandComputation)
{
    std::vector<float> exact = {1.0f, 2.0f};
    std::vector<float> approx = {0.9f, 2.2f};
    // errors: 0.1, 0.1 -> mean 10% -> 90.
    EXPECT_NEAR(quality_percent(Metric::MeanRelativeError, exact, approx),
                90.0, 1e-4);
}

TEST(QualityTest, QualityFlooredAtZero)
{
    std::vector<float> exact = {1.0f};
    std::vector<float> approx = {100.0f};
    EXPECT_DOUBLE_EQ(quality_percent(Metric::L1Norm, exact, approx), 0.0);
}

TEST(QualityTest, NonFiniteSkipped)
{
    std::vector<float> exact = {1.0f, std::nanf(""), 3.0f};
    std::vector<float> approx = {1.0f, 5.0f, 3.0f};
    EXPECT_DOUBLE_EQ(quality_percent(Metric::L1Norm, exact, approx),
                     100.0);
}

TEST(QualityTest, EmptyVectorsScoreHundred)
{
    for (const Metric metric : {Metric::L1Norm, Metric::L2Norm,
                                Metric::MeanRelativeError})
        EXPECT_DOUBLE_EQ(quality_percent(metric, {}, {}), 100.0);
}

TEST(QualityTest, AllNonFiniteScoresZero)
{
    // Every pair skipped means the approximation produced nothing
    // usable: defined as 0, not whatever the skip loop leaves behind.
    const std::vector<float> finite = {1.0f, 2.0f};
    const std::vector<float> broken = {std::nanf(""),
                                       std::numeric_limits<float>::infinity()};
    for (const Metric metric : {Metric::L1Norm, Metric::L2Norm,
                                Metric::MeanRelativeError}) {
        EXPECT_DOUBLE_EQ(quality_percent(metric, finite, broken), 0.0);
        EXPECT_DOUBLE_EQ(quality_percent(metric, broken, finite), 0.0);
        EXPECT_DOUBLE_EQ(quality_percent(metric, broken, broken), 0.0);
    }
}

TEST(QualityTest, SizeMismatchRejected)
{
    EXPECT_THROW(quality_percent(Metric::L1Norm, {1.0f}, {1.0f, 2.0f}),
                 UserError);
}

TEST(QualityTest, ElementErrors)
{
    auto errors = element_errors({2.0f, 4.0f}, {1.0f, 4.0f});
    ASSERT_EQ(errors.size(), 2u);
    EXPECT_DOUBLE_EQ(errors[0], 0.5);
    EXPECT_DOUBLE_EQ(errors[1], 0.0);
}

// ---- Tuner -------------------------------------------------------------------

/// A synthetic variant: produces `base + bias` with given cost.
Variant
fake_variant(const std::string& label, int aggressiveness, float bias,
             double cycles, bool trap = false)
{
    return {label, aggressiveness, [bias, cycles, trap](const Input& input) {
                const std::uint64_t seed = input.seed();
                VariantRun run;
                run.output = {static_cast<float>(seed % 100) + bias,
                              10.0f + bias};
                run.modeled_cycles = cycles;
                run.wall_seconds = cycles * 1e-9;
                run.trapped = trap;
                return run;
            }};
}

TEST(TunerTest, AuditAgainstATrappedExactRunIsVoid)
{
    // Once calibrated, the exact kernel traps.  An audit has nothing to
    // judge the served output by: it must neither count as a quality
    // check nor charge the healthy variant's breaker, which under the
    // default policy would demote it for good.
    auto broken = std::make_shared<std::atomic<bool>>(false);
    Variant exact = fake_variant("exact", 0, 0.0f, 1000.0);
    exact.run = [broken, run = exact.run](const Input& input) {
        if (!broken->load())
            return run(input);
        VariantRun trapped;
        trapped.output = {0.0f, 0.0f};  // Partly written, as a trap leaves it.
        trapped.trapped = true;
        return trapped;
    };
    std::vector<Variant> variants;
    variants.push_back(std::move(exact));
    variants.push_back(fake_variant("good", 1, 0.1f, 500.0));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0,
                /*check_interval=*/1);
    tuner.calibrate({1, 2, 3});
    ASSERT_EQ(tuner.selected_label(), "good");

    broken->store(true);
    for (std::uint64_t seed = 100; seed < 103; ++seed) {
        const VariantRun run = tuner.invoke(seed);
        EXPECT_FALSE(run.trapped);
        EXPECT_EQ(run.output,
                  fake_variant("good", 1, 0.1f, 500.0).run(seed).output);
    }
    EXPECT_EQ(tuner.stats().quality_checks, 0u);
    EXPECT_EQ(tuner.stats().void_audits, 3u);
    EXPECT_EQ(tuner.stats().violations, 0u);
    EXPECT_EQ(tuner.stats().quarantines, 0u);
    EXPECT_EQ(tuner.selected_label(), "good");
}

TEST(TunerTest, PicksFastestMeetingToq)
{
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(fake_variant("good", 1, 0.1f, 500.0));   // ~99%
    variants.push_back(fake_variant("fast-bad", 2, 9.0f, 100.0));  // poor
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0);
    tuner.calibrate({1, 2, 3});
    EXPECT_EQ(tuner.selected_label(), "good");
    const auto& profiles = tuner.profiles();
    EXPECT_TRUE(profiles[1].meets_toq);
    EXPECT_FALSE(profiles[2].meets_toq);
    EXPECT_NEAR(profiles[1].speedup, 2.0, 1e-9);
}

TEST(TunerTest, FallsBackToExactWhenNothingQualifies)
{
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(fake_variant("bad", 1, 50.0f, 10.0));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0);
    tuner.calibrate({1, 2});
    EXPECT_EQ(tuner.selected_label(), "exact");
}

TEST(TunerTest, TrappedVariantNeverSelected)
{
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(fake_variant("unsafe", 1, 0.0f, 1.0, true));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0);
    tuner.calibrate({1});
    EXPECT_EQ(tuner.selected_label(), "exact");
    EXPECT_TRUE(tuner.profiles()[1].trapped);
}

// ---- Wall-clock verdict ----------------------------------------------------

/// fake_variant() whose runs report @p wall(seed) seconds of wall clock.
Variant
walled_variant(const std::string& label, int aggressiveness, float bias,
               double cycles, std::function<double(std::uint64_t)> wall)
{
    Variant variant = fake_variant(label, aggressiveness, bias, cycles);
    variant.run = [run = variant.run, wall](const Input& input) {
        VariantRun out = run(input);
        out.wall_seconds = wall(input.seed());
        return out;
    };
    return variant;
}

std::function<double(std::uint64_t)>
constant_wall(double seconds)
{
    return [seconds](std::uint64_t) { return seconds; };
}

TEST(TunerTest, VariantSlowerThanExactOnEveryInputIsNeverServed)
{
    // "fast" meets the TOQ with the best modeled speedup, but its wall
    // exceeds exact's on every training input.  "sloppy" is faster still
    // and misses the TOQ: a degradation rung.
    std::vector<Variant> variants;
    variants.push_back(
        walled_variant("exact", 0, 0.0f, 1000.0, constant_wall(2e-3)));
    variants.push_back(
        walled_variant("good", 1, 0.1f, 500.0, constant_wall(1e-3)));
    variants.push_back(
        walled_variant("fast", 2, 0.1f, 100.0, constant_wall(3e-3)));
    variants.push_back(
        walled_variant("sloppy", 3, 9.0f, 50.0, constant_wall(1e-3)));
    Tuner tuner(variants, Metric::MeanRelativeError, 90.0);
    const auto& profiles = tuner.calibrate({1, 2, 3});
    EXPECT_TRUE(profiles[2].meets_toq);
    EXPECT_TRUE(profiles[2].slower_than_exact);
    EXPECT_NEAR(profiles[2].wall_speedup, 2.0 / 3.0, 1e-9);
    EXPECT_FALSE(profiles[1].slower_than_exact);
    EXPECT_FALSE(profiles[3].slower_than_exact);
    // The modeled ranking still puts it first.
    EXPECT_EQ(modeled_order(profiles), (std::vector<int>{2, 1, 0}));

    const auto never_serves_fast = [](Tuner& t) {
        EXPECT_EQ(t.selected_label(), "good");
        EXPECT_EQ(t.calibration_state().fallback_order,
                  (std::vector<int>{1, 0}));
        // Load shedding walks up the ladder, past "fast" to "sloppy".
        for (int level = 0; level <= 3; ++level) {
            t.set_degradation_level(level);
            EXPECT_NE(t.serve_batch({Input(7)}).label, "fast")
                << "level " << level;
        }
        t.set_degradation_level(1);
        EXPECT_EQ(t.serve_batch({Input(7)}).label, "sloppy");
        t.set_degradation_level(0);
    };
    never_serves_fast(tuner);

    Tuner restored(variants, Metric::MeanRelativeError, 90.0);
    ASSERT_TRUE(restored.restore_calibration(tuner.calibration_state()));
    EXPECT_TRUE(restored.profiles()[2].slower_than_exact);
    never_serves_fast(restored);

    // A record that puts the slowdown back on the chain is rejected.
    CalibrationState forged = tuner.calibration_state();
    forged.fallback_order = {2, 1, 0};
    forged.selected = 2;
    EXPECT_FALSE(restored.restore_calibration(forged));
    forged = tuner.calibration_state();
    forged.profiles[0].slower_than_exact = true;
    EXPECT_FALSE(restored.restore_calibration(forged));
    EXPECT_EQ(restored.selected_label(), "good");
}

TEST(TunerTest, VariantSlowerOnOnlySomeInputsStaysServed)
{
    std::vector<Variant> variants;
    variants.push_back(
        walled_variant("exact", 0, 0.0f, 1000.0, constant_wall(2e-3)));
    variants.push_back(walled_variant(
        "good", 1, 0.1f, 500.0,
        [](std::uint64_t seed) { return seed == 1 ? 3e-3 : 1e-3; }));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0);
    EXPECT_FALSE(tuner.calibrate({1, 2})[1].slower_than_exact);
    EXPECT_EQ(tuner.selected_label(), "good");
}

TEST(TunerTest, RunsThatReportNoWallGiveNoVerdict)
{
    // No wall from the variant, then none from exact: neither is a
    // measured slowdown.
    for (const bool exact_reports : {true, false}) {
        std::vector<Variant> variants;
        variants.push_back(walled_variant(
            "exact", 0, 0.0f, 1000.0,
            constant_wall(exact_reports ? 2e-3 : 0.0)));
        variants.push_back(walled_variant(
            "good", 1, 0.1f, 500.0,
            constant_wall(exact_reports ? 0.0 : 3e-3)));
        Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0);
        EXPECT_FALSE(tuner.calibrate({1, 2, 3})[1].slower_than_exact);
        EXPECT_EQ(tuner.selected_label(), "good");
    }
}

TEST(TunerTest, ModeledOrderKeepsTiedSpeedupsInIndexOrder)
{
    const auto profile = [](double speedup, bool meets_toq) {
        VariantProfile p;
        p.speedup = speedup;
        p.meets_toq = meets_toq;
        return p;
    };
    // Index 4 is the fastest but misses the TOQ; index 6 is slower than
    // exact in wall clock, which the modeled order ignores.
    std::vector<VariantProfile> profiles = {
        profile(1.0, true), profile(2.0, true),  profile(3.0, true),
        profile(2.0, true), profile(9.0, false), profile(3.0, true),
        profile(2.0, true)};
    profiles[6].slower_than_exact = true;
    EXPECT_EQ(modeled_order(profiles),
              (std::vector<int>{2, 5, 1, 3, 6, 0}));
}

TEST(TunerTest, RuntimeViolationTriggersBackoff)
{
    // A variant that is fine during calibration (seeds < 100) but
    // degrades at runtime (seeds >= 100).
    Variant shifty{"shifty", 1, [](const Input& input) {
                       const std::uint64_t seed = input.seed();
                       VariantRun run;
                       const float bias = seed >= 100 ? 50.0f : 0.01f;
                       run.output = {static_cast<float>(seed % 7) + bias,
                                     10.0f};
                       run.modeled_cycles = 10.0;
                       return run;
                   }};
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(shifty);
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0,
                /*check_interval=*/5);
    tuner.calibrate({1, 2});
    EXPECT_EQ(tuner.selected_label(), "shifty");
    for (int i = 0; i < 10; ++i)
        tuner.invoke(100 + i);
    EXPECT_EQ(tuner.selected_label(), "exact");
    EXPECT_GE(tuner.stats().violations, 1u);
    EXPECT_GE(tuner.stats().backoffs, 1u);
}

/// Clean during calibration (seeds < 100), degraded at runtime.
Variant
degrading_variant(const std::string& label, int aggressiveness,
                  double cycles)
{
    return {label, aggressiveness, [cycles](const Input& input) {
                const std::uint64_t seed = input.seed();
                VariantRun run;
                const float bias = seed >= 100 ? 50.0f : 0.01f;
                run.output = {static_cast<float>(seed % 7) + bias, 10.0f};
                run.modeled_cycles = cycles;
                return run;
            }};
}

TEST(TunerTest, BackoffStepsThroughFallbackChain)
{
    // Two approximate variants, both fine in training and both degraded
    // at runtime: each violation must drop the current selection and
    // advance to the next-fastest candidate, ending at exact.
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(degrading_variant("aggressive", 2, 100.0));
    variants.push_back(degrading_variant("mild", 1, 400.0));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0,
                /*check_interval=*/1);
    tuner.calibrate({1, 2});
    EXPECT_EQ(tuner.selected_label(), "aggressive");

    tuner.invoke(100);
    EXPECT_EQ(tuner.selected_label(), "mild");
    tuner.invoke(101);
    EXPECT_EQ(tuner.selected_label(), "exact");

    EXPECT_EQ(tuner.stats().invocations, 2u);
    EXPECT_EQ(tuner.stats().quality_checks, 2u);
    EXPECT_EQ(tuner.stats().violations, 2u);
    EXPECT_EQ(tuner.stats().backoffs, 2u);

    // Exact is the chain's terminator: no further audits or downgrades.
    tuner.invoke(102);
    EXPECT_EQ(tuner.selected_label(), "exact");
    EXPECT_EQ(tuner.stats().quality_checks, 2u);
    EXPECT_EQ(tuner.stats().backoffs, 2u);
}

TEST(TunerTest, BackoffExhaustionLandsOnExactAndStays)
{
    // Every approximate variant degrades at runtime: the violation
    // cascade must walk the whole fallback chain, land on the exact
    // variant (aggressiveness 0), stay there, and count each downgrade
    // exactly once.
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(degrading_variant("a3", 3, 50.0));
    variants.push_back(degrading_variant("a2", 2, 200.0));
    variants.push_back(degrading_variant("a1", 1, 500.0));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0,
                /*check_interval=*/1);
    tuner.calibrate({1, 2});
    EXPECT_EQ(tuner.selected_label(), "a3");

    std::uint64_t seed = 100;
    while (tuner.selected_index() != 0)
        tuner.invoke(seed++);
    EXPECT_EQ(tuner.selected_label(), "exact");
    EXPECT_EQ(tuner.stats().backoffs, 3u);     // One per approx variant.
    EXPECT_EQ(tuner.stats().violations, 3u);

    // Exhausted: further violating inputs change nothing.
    for (int i = 0; i < 20; ++i)
        tuner.invoke(seed++);
    EXPECT_EQ(tuner.selected_index(), 0);
    EXPECT_EQ(tuner.selected_label(), "exact");
    EXPECT_EQ(tuner.stats().backoffs, 3u);
    EXPECT_EQ(tuner.stats().violations, 3u);
}

TEST(TunerTest, RecalibrateRebuildsSelectionAndCounts)
{
    // After runtime backoff demoted the variant, recalibrating on clean
    // inputs re-promotes it — unlike invoke()'s permanent demotion — and
    // recalibrating on drifted inputs drops it again.
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(degrading_variant("shifty", 1, 10.0));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0,
                /*check_interval=*/1);
    tuner.calibrate({1, 2});
    EXPECT_EQ(tuner.selected_label(), "shifty");

    tuner.invoke(100);  // Violation: demoted to exact.
    EXPECT_EQ(tuner.selected_label(), "exact");

    tuner.recalibrate({3, 4});  // Clean inputs again.
    EXPECT_EQ(tuner.selected_label(), "shifty");
    EXPECT_EQ(tuner.stats().recalibrations, 1u);

    tuner.recalibrate({100, 101});  // Drifted training set.
    EXPECT_EQ(tuner.selected_label(), "exact");
    EXPECT_EQ(tuner.stats().recalibrations, 2u);
    // Runtime counters survive recalibration.
    EXPECT_GE(tuner.stats().invocations, 1u);
}

TEST(TunerTest, RunSelectedSkipsAuditsButCountsInvocations)
{
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(degrading_variant("shifty", 1, 10.0));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0,
                /*check_interval=*/1);
    tuner.calibrate({1, 2});

    // Degraded inputs, but the serving path never audits: no violations,
    // no backoff — quality accounting belongs to the serving layer.
    for (std::uint64_t seed = 100; seed < 120; ++seed)
        tuner.serve_batch({seed});
    EXPECT_EQ(tuner.selected_label(), "shifty");
    EXPECT_EQ(tuner.stats().invocations, 20u);
    EXPECT_EQ(tuner.stats().quality_checks, 0u);
    EXPECT_EQ(tuner.stats().backoffs, 0u);
}

TEST(TunerTest, RunSelectedTrapStillDemotes)
{
    Variant unstable{"unstable", 1, [](const Input& input) {
                         const std::uint64_t seed = input.seed();
                         VariantRun run;
                         run.output = {static_cast<float>(seed % 7), 10.0f};
                         run.modeled_cycles = 10.0;
                         run.trapped = seed >= 100;
                         return run;
                     }};
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(unstable);
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0);
    tuner.calibrate({1, 2});

    const ServedRun served = tuner.serve_batch({100}).runs.at(0);
    EXPECT_FALSE(served.run.trapped);  // Served by the exact rerun...
    EXPECT_TRUE(served.trap_fallback);  // ...which the run names.
    EXPECT_EQ(served.label, "exact");
    EXPECT_EQ(tuner.selected_label(), "exact");
    EXPECT_EQ(tuner.stats().backoffs, 1u);
}

TEST(TunerTest, ConcurrentRunSelectedKeepsCountsConsistent)
{
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(fake_variant("good", 1, 0.01f, 100.0));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0);
    tuner.calibrate({1, 2});

    constexpr int kThreads = 4;
    constexpr int kPerThread = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&tuner, t] {
            for (int i = 0; i < kPerThread; ++i)
                tuner.serve_batch({static_cast<std::uint64_t>(t * 1000 + i)});
        });
    }
    for (auto& thread : threads)
        thread.join();

    const TunerStats stats = tuner.stats_snapshot();
    EXPECT_EQ(stats.invocations,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(stats.backoffs, 0u);
    EXPECT_EQ(tuner.selected_label(), "good");
    EXPECT_EQ(tuner.selected_index(), 1);
}

TEST(TunerTest, TrappedAtRuntimeBacksOffPermanently)
{
    // Safe during calibration, traps at runtime: the tuner must serve the
    // input with the exact kernel and demote the variant for good.
    Variant unstable{"unstable", 1, [](const Input& input) {
                         const std::uint64_t seed = input.seed();
                         VariantRun run;
                         run.output = {static_cast<float>(seed % 7) + 0.01f,
                                       10.0f};
                         run.modeled_cycles = 10.0;
                         run.trapped = seed >= 100;
                         return run;
                     }};
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(unstable);
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0,
                /*check_interval=*/5);
    tuner.calibrate({1, 2});
    EXPECT_EQ(tuner.selected_label(), "unstable");

    const VariantRun served = tuner.invoke(100);
    EXPECT_FALSE(served.trapped);  // The exact rerun serves this input.
    EXPECT_EQ(tuner.selected_label(), "exact");
    EXPECT_EQ(tuner.stats().backoffs, 1u);
    EXPECT_EQ(tuner.stats().violations, 0u);  // Trap, not a quality miss.
}

TEST(TunerTest, ParallelCalibrationMatchesSerial)
{
    auto build = [] {
        std::vector<Variant> variants;
        variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
        variants.push_back(fake_variant("good", 1, 0.1f, 500.0));
        variants.push_back(fake_variant("better", 2, 0.2f, 250.0));
        variants.push_back(fake_variant("fast-bad", 3, 9.0f, 100.0));
        return variants;
    };
    Tuner parallel_tuner(build(), Metric::MeanRelativeError, 90.0);
    Tuner serial_tuner(build(), Metric::MeanRelativeError, 90.0);
    const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
    const auto& par = parallel_tuner.calibrate(seeds, /*parallel=*/true);
    const auto& ser = serial_tuner.calibrate(seeds, /*parallel=*/false);

    EXPECT_EQ(parallel_tuner.selected_label(),
              serial_tuner.selected_label());
    ASSERT_EQ(par.size(), ser.size());
    for (std::size_t v = 0; v < par.size(); ++v) {
        EXPECT_EQ(par[v].label, ser[v].label);
        EXPECT_DOUBLE_EQ(par[v].speedup, ser[v].speedup);
        EXPECT_DOUBLE_EQ(par[v].quality, ser[v].quality);
        EXPECT_EQ(par[v].meets_toq, ser[v].meets_toq);
        EXPECT_EQ(par[v].trapped, ser[v].trapped);
    }
}

TEST(TunerTest, AuditsEveryNthInvocation)
{
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(fake_variant("good", 1, 0.01f, 100.0));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0,
                /*check_interval=*/10);
    tuner.calibrate({1});
    for (int i = 0; i < 100; ++i)
        tuner.invoke(i);
    EXPECT_EQ(tuner.stats().quality_checks, 10u);
    EXPECT_EQ(tuner.stats().violations, 0u);
}

TEST(TunerTest, SelectedLabelLockedAgainstConcurrentBackoff)
{
    // TSan regression: selected_label()/selected_index() used to read
    // selected_ without the tuner lock, racing with the serving path's
    // reselection.  Here readers poll the selection while trap-driven
    // backoffs rewrite it.
    Variant unstable{"unstable", 1, [](const Input& input) {
                         const std::uint64_t seed = input.seed();
                         VariantRun run;
                         run.output = {static_cast<float>(seed % 7),
                                       10.0f};
                         run.modeled_cycles = 10.0;
                         run.trapped = seed >= 100;
                         return run;
                     }};
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(std::move(unstable));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0);
    tuner.calibrate({1, 2});

    std::atomic<bool> stop{false};
    std::thread reader([&] {
        std::size_t checksum = 0;
        do {
            checksum += tuner.selected_label().size();
            checksum += static_cast<std::size_t>(tuner.selected_index());
        } while (!stop.load(std::memory_order_relaxed));
        EXPECT_GT(checksum, 0u);
    });
    std::thread server([&] {
        for (std::uint64_t seed = 100; seed < 400; ++seed)
            tuner.serve_batch({seed});
    });
    server.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    EXPECT_EQ(tuner.selected_label(), "exact");
    EXPECT_EQ(tuner.stats().backoffs, 1u);
}

TEST(TunerTest, ServeBatchMatchesServePerMember)
{
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(fake_variant("good", 1, 0.1f, 500.0));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0);
    tuner.calibrate({1, 2, 3});
    const std::uint64_t before = tuner.stats().invocations;

    const BatchServed batch = tuner.serve_batch({4, 5, 6});
    EXPECT_EQ(batch.label, "good");
    ASSERT_EQ(batch.runs.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        const ServedRun& served = batch.runs[i];
        EXPECT_EQ(served.label, "good");
        EXPECT_FALSE(served.trap_fallback);
        // Per-member outputs in seed order, as serving each seed alone
        // would produce.
        ASSERT_EQ(served.run.output.size(), 2u);
        EXPECT_FLOAT_EQ(served.run.output[0],
                        static_cast<float>(4 + i) + 0.1f);
    }
    // A batch of N counts N invocations toward audit/breaker pacing.
    EXPECT_EQ(tuner.stats().invocations, before + 3);
}

TEST(TunerTest, ServeBatchUsesCoalescedClosureInFastMode)
{
    auto batch_calls = std::make_shared<std::atomic<int>>(0);
    auto fast_calls = std::make_shared<std::atomic<int>>(0);
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    Variant good = fake_variant("good", 1, 0.1f, 500.0);
    good.run_fast = [fast_calls, run = good.run](const Input& input) {
        fast_calls->fetch_add(1);
        return run(input);
    };
    good.run_batch = [batch_calls,
                      run = good.run](const std::vector<std::uint64_t>&
                                          seeds) {
        batch_calls->fetch_add(1);
        std::vector<VariantRun> runs;
        for (const std::uint64_t seed : seeds)
            runs.push_back(run(seed));
        return runs;
    };
    variants.push_back(std::move(good));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0);
    tuner.calibrate({1, 2, 3});
    // Calibration scores each training input through run_fast and never
    // coalesces; count serving calls from here.
    EXPECT_EQ(batch_calls->load(), 0);
    const int calibration_fast_calls = fast_calls->load();
    EXPECT_EQ(calibration_fast_calls, 3);

    // Serving coalesces a batch of two or more into one closure call...
    const BatchServed batch = tuner.serve_batch({7, 8, 9, 10});
    EXPECT_EQ(batch_calls->load(), 1);
    EXPECT_EQ(fast_calls->load(), calibration_fast_calls);
    ASSERT_EQ(batch.runs.size(), 4u);
    EXPECT_FLOAT_EQ(batch.runs[3].run.output[0], 10.0f + 0.1f);
    // ...but a batch of one has nothing to coalesce and runs the
    // variant's run_fast closure.
    const BatchServed single = tuner.serve_batch({11});
    EXPECT_EQ(batch_calls->load(), 1);
    EXPECT_EQ(fast_calls->load(), calibration_fast_calls + 1);
    ASSERT_EQ(single.runs.size(), 1u);
    EXPECT_FLOAT_EQ(single.runs[0].run.output[0], 11.0f + 0.1f);
}

/// Seeds each closure kind of a calibration was called with.
struct ClosureCalls {
    std::mutex mutex;
    std::vector<std::uint64_t> priced;
    std::vector<std::uint64_t> fast;
};

/// @p variant with `run` and `run_fast` both wrapping its `run` and
/// recording their seeds in @p calls.
Variant
counted(Variant variant, std::shared_ptr<ClosureCalls> calls)
{
    variant.run_fast = [calls, run = variant.run](const Input& input) {
        const std::uint64_t seed = input.seed();
        {
            std::lock_guard<std::mutex> lock(calls->mutex);
            calls->fast.push_back(seed);
        }
        return run(input);
    };
    variant.run = [calls, run = variant.run](const Input& input) {
        const std::uint64_t seed = input.seed();
        {
            std::lock_guard<std::mutex> lock(calls->mutex);
            calls->priced.push_back(seed);
        }
        return run(input);
    };
    return variant;
}

TEST(TunerTest, CalibrationPricesOnceAndScoresEveryInputFast)
{
    // "varying" costs 250 cycles on seed 1 and 2000 on every other seed.
    // Priced on seed 1 alone it is 4x exact and wins; a mean over all
    // three seeds would rank it below "steady" (0.7x against 2x).
    Variant varying{"varying", 2, [](const Input& input) {
                        const std::uint64_t seed = input.seed();
                        VariantRun run;
                        run.output = {static_cast<float>(seed % 100) + 0.1f,
                                      10.1f};
                        run.modeled_cycles = seed == 1 ? 250.0 : 2000.0;
                        return run;
                    }};
    auto calls = std::make_shared<ClosureCalls>();
    std::vector<Variant> variants;
    variants.push_back(counted(fake_variant("exact", 0, 0.0f, 1000.0),
                               calls));
    variants.push_back(counted(fake_variant("steady", 1, 0.1f, 500.0),
                               calls));
    variants.push_back(counted(std::move(varying), calls));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0);
    tuner.calibrate({1, 2, 3});

    EXPECT_EQ(calls->priced, std::vector<std::uint64_t>(3, 1));
    EXPECT_EQ(calls->fast.size(), 9u);
    for (const std::uint64_t seed : {1, 2, 3})
        EXPECT_EQ(std::count(calls->fast.begin(), calls->fast.end(), seed),
                  3);
    EXPECT_DOUBLE_EQ(tuner.profiles()[1].speedup, 2.0);
    EXPECT_DOUBLE_EQ(tuner.profiles()[2].speedup, 4.0);
    EXPECT_EQ(tuner.selected_label(), "varying");
}

/// @p variant whose priced output is its Fast output passed through
/// @p perturb.
Variant
priced_perturbed(Variant variant, float (*perturb)(float))
{
    variant.run_fast = variant.run;
    variant.run = [run = variant.run, perturb](const Input& input) {
        VariantRun priced = run(input);
        for (float& value : priced.output)
            value = perturb(value);
        return priced;
    };
    return variant;
}

float
next_float(float value)
{
    return std::nextafter(value, 1e30f);
}

float
doubled(float value)
{
    return 2.0f * value;
}

TEST(TunerTest, PricedOutputBeyondTheToqOfTheFastOneMarksTheVariantTrapped)
{
    // "split" scores 100% on its Fast outputs: only the cross-check
    // against its priced output keeps it out of service.
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(
        priced_perturbed(fake_variant("split", 2, 0.0f, 100.0), doubled));
    variants.push_back(fake_variant("good", 1, 0.1f, 500.0));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0);
    tuner.calibrate({1, 2});
    EXPECT_TRUE(tuner.profiles()[1].trapped);
    EXPECT_FALSE(tuner.profiles()[1].meets_toq);
    EXPECT_EQ(tuner.selected_label(), "good");
}

TEST(TunerTest, ExactPricedOutputBeyondTheToqOfTheFastOneFailsCalibration)
{
    std::vector<Variant> variants;
    variants.push_back(
        priced_perturbed(fake_variant("exact", 0, 0.0f, 1000.0), doubled));
    variants.push_back(fake_variant("good", 1, 0.1f, 500.0));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0);
    EXPECT_THROW(tuner.calibrate({1, 2}), UserError);
    EXPECT_THROW(tuner.serve_batch({1}), UserError);  // Still uncalibrated.
}

TEST(TunerTest, LastBitDifferencesBetweenPricedAndFastOutputsAreTolerated)
{
    // A float atomic reduction gives different last bits from launch to
    // launch; neither the exact kernel nor a variant may fail for it.
    std::vector<Variant> variants;
    variants.push_back(
        priced_perturbed(fake_variant("exact", 0, 0.0f, 1000.0), next_float));
    variants.push_back(
        priced_perturbed(fake_variant("split", 2, 0.0f, 100.0), next_float));
    variants.push_back(fake_variant("good", 1, 0.1f, 500.0));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0);
    tuner.calibrate({1, 2});
    EXPECT_FALSE(tuner.profiles()[1].trapped);
    EXPECT_TRUE(tuner.profiles()[1].meets_toq);
    EXPECT_EQ(tuner.selected_label(), "split");
}

TEST(TunerTest, SequentialBatchMembersRunUnderTheirOwnCancelToken)
{
    // Without a run_batch closure a batch runs one launch per seed.  Each
    // launch must see its own member's token: the caller's scope is sized
    // for the whole batch, and a one-member launch disarms a scope whose
    // size does not match, which left every member uncancellable.
    auto seen = std::make_shared<std::vector<const vm::CancelToken*>>();
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    Variant good = fake_variant("good", 1, 0.1f, 500.0);
    good.run = [seen, run = good.run](const Input& input) {
        const auto* tokens = exec::current_batch_cancel_tokens();
        seen->push_back(tokens && tokens->size() == 1 ? tokens->front()
                                                      : nullptr);
        return run(input);
    };
    variants.push_back(std::move(good));
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0);
    tuner.calibrate({1, 2, 3}, /*parallel=*/false);
    ASSERT_EQ(tuner.selected_label(), "good");
    seen->clear();

    vm::CancelToken first;
    vm::CancelToken second;
    const std::vector<const vm::CancelToken*> tokens = {&first, &second};
    {
        exec::BatchCancelScope scope(&tokens);
        tuner.serve_batch({4, 5});
    }
    ASSERT_EQ(seen->size(), 2u);
    EXPECT_EQ((*seen)[0], &first);
    EXPECT_EQ((*seen)[1], &second);
}

TEST(TunerTest, ServeBatchReservesTrappedMembersExactOnly)
{
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back({"fragile", 1, [](const Input& input) {
                            const std::uint64_t seed = input.seed();
                            VariantRun run;
                            run.output = {static_cast<float>(seed % 100) +
                                              0.1f,
                                          10.1f};
                            run.modeled_cycles = 500.0;
                            run.trapped = seed >= 100;
                            return run;
                        }});
    Tuner tuner(std::move(variants), Metric::MeanRelativeError, 90.0);
    tuner.calibrate({1, 2, 3});
    ASSERT_EQ(tuner.selected_label(), "fragile");

    // The middle member traps; only it falls back to the exact kernel,
    // and its batch-mates keep the approximate selection's outputs.
    const BatchServed batch = tuner.serve_batch({4, 150, 5});
    ASSERT_EQ(batch.runs.size(), 3u);
    EXPECT_FALSE(batch.runs[0].trap_fallback);
    EXPECT_EQ(batch.runs[0].label, "fragile");
    EXPECT_TRUE(batch.runs[1].trap_fallback);
    EXPECT_EQ(batch.runs[1].label, "exact");
    EXPECT_FALSE(batch.runs[1].run.trapped);
    EXPECT_FLOAT_EQ(batch.runs[1].run.output[0], 50.0f);  // 150 % 100
    EXPECT_FALSE(batch.runs[2].trap_fallback);
    EXPECT_EQ(batch.runs[2].label, "fragile");
}

TEST(TunerTest, ServeBatchBeforeCalibrateRejected)
{
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1.0));
    Tuner tuner(std::move(variants), Metric::L1Norm, 90.0);
    EXPECT_THROW(tuner.serve_batch({1, 2}), UserError);
}

TEST(TunerTest, InvokeBeforeCalibrateRejected)
{
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1.0));
    Tuner tuner(std::move(variants), Metric::L1Norm, 90.0);
    EXPECT_THROW(tuner.invoke(1), UserError);
}

TEST(TunerTest, FirstVariantMustBeExact)
{
    std::vector<Variant> variants;
    variants.push_back(fake_variant("approx", 1, 0.0f, 1.0));
    EXPECT_THROW(Tuner(std::move(variants), Metric::L1Norm, 90.0),
                 UserError);
}

}  // namespace
}  // namespace paraprox::runtime
