// Integration tests over the 13 benchmark applications: each app's
// variants execute end-to-end under the GPU device model, the exact
// variant is sane, at least one approximate variant meets the paper's 90%
// TOQ while being cheaper, and pattern detection labels every kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "analysis/patterns.h"
#include "apps/app.h"
#include "runtime/quality.h"
#include "runtime/tuner.h"
#include "wall_double.h"

namespace paraprox {
namespace {

using apps::Application;

const device::DeviceModel kGpu = device::DeviceModel::gtx560();

struct AppCase {
    std::string name;
};

class AppSuite : public ::testing::TestWithParam<int> {
  protected:
    static std::vector<std::unique_ptr<Application>>&
    all()
    {
        static auto apps = [] {
            auto list = apps::make_all_applications();
            for (auto& app : list)
                app->set_scale(0.25);  // keep tests quick
            return list;
        }();
        return apps;
    }

    Application& app() { return *all()[GetParam()]; }
};

TEST_P(AppSuite, InfoIsComplete)
{
    const auto info = app().info();
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.domain.empty());
    EXPECT_FALSE(info.patterns.empty());
}

TEST_P(AppSuite, ModuleHasKernels)
{
    EXPECT_FALSE(app().module().kernels().empty());
}

TEST_P(AppSuite, PatternsDetected)
{
    // Every app's module must exhibit at least one detected pattern on at
    // least one kernel.
    auto report = analysis::detect_patterns(app().module(), kGpu);
    bool any = false;
    for (const auto& kernel : report)
        any = any || !kernel.kinds().empty();
    EXPECT_TRUE(any) << app().info().name;
}

TEST_P(AppSuite, VariantsRunAndMeetToq)
{
    // The modeled winner: at this scale HotSpot's and BoxMuller's run
    // within timing noise of exact in the interpreter.
    auto variants = test_doubles::without_wall(app().variants(kGpu));
    ASSERT_GE(variants.size(), 2u) << app().info().name;
    EXPECT_EQ(variants[0].aggressiveness, 0);

    runtime::Tuner tuner(std::move(variants), app().info().metric, 90.0);
    const auto& profiles = tuner.calibrate({11, 22});

    // The exact profile is trivially perfect.
    EXPECT_DOUBLE_EQ(profiles[0].quality, 100.0);

    // At least one approximate variant must meet the TOQ and be cheaper
    // than exact under the device model.
    bool winner = false;
    for (std::size_t v = 1; v < profiles.size(); ++v) {
        EXPECT_FALSE(profiles[v].trapped)
            << app().info().name << ": " << profiles[v].label;
        if (profiles[v].meets_toq && profiles[v].speedup > 1.0)
            winner = true;
    }
    EXPECT_TRUE(winner) << app().info().name;
    EXPECT_NE(tuner.selected_index(), 0) << app().info().name;

    // Steady state: a few invocations at the selection stay healthy.
    for (int i = 0; i < 3; ++i) {
        auto run = tuner.invoke(100 + i);
        EXPECT_FALSE(run.trapped);
        EXPECT_FALSE(run.output.empty());
    }
}

TEST_P(AppSuite, PricingOnceKeepsTheMeanCycleFallbackChain)
{
    // Calibration prices each variant on its first training input only.
    // Its fallback chain must still be the TOQ-passing variants ranked by
    // their mean priced cycles over all training inputs, on both device
    // models.
    const std::vector<std::uint64_t> seeds = {11, 22, 33};
    const runtime::Metric metric = app().info().metric;
    for (const auto& device : {kGpu, device::DeviceModel::core_i7()}) {
        auto variants = app().variants(device);
        std::vector<double> cycles(variants.size(), 0.0);
        std::vector<double> quality(variants.size(), 0.0);
        std::vector<bool> trapped(variants.size(), false);
        std::vector<std::vector<float>> exact(seeds.size());
        for (std::size_t v = 0; v < variants.size(); ++v) {
            for (std::size_t s = 0; s < seeds.size(); ++s) {
                runtime::VariantRun run = variants[v].run(seeds[s]);
                if (v == 0)
                    exact[s] = run.output;
                trapped[v] = trapped[v] || run.trapped;
                cycles[v] += run.modeled_cycles / seeds.size();
                quality[v] += runtime::quality_percent(metric, exact[s],
                                                       run.output) /
                              seeds.size();
            }
        }
        std::vector<int> expected;
        for (std::size_t v = 1; v < variants.size(); ++v) {
            if (!trapped[v] && quality[v] >= 90.0)
                expected.push_back(static_cast<int>(v));
        }
        std::sort(expected.begin(), expected.end(),
                  [&](int a, int b) { return cycles[a] < cycles[b]; });
        expected.push_back(0);

        // The modeled chain: the served one also drops the variants
        // slower than exact in wall clock.
        runtime::Tuner tuner(std::move(variants), metric, 90.0);
        EXPECT_EQ(runtime::modeled_order(tuner.calibrate(seeds)), expected)
            << app().info().name << " on " << device.name;
    }
}

TEST_P(AppSuite, SelectedVariantAfterExactOnOneInputMatchesFreshBuilds)
{
    // A served request runs exact (the shadow audit) and its selection on
    // one runtime::Input.  Each launch must see the input as a fresh build
    // would: neither may write the shared build.  No app sums floats
    // atomically, so the outputs must match bit for bit.
    const std::vector<runtime::Variant> variants = app().variants(kGpu);
    runtime::Tuner tuner(variants, app().info().metric, 90.0);
    tuner.calibrate({11, 22});
    const runtime::Variant& exact = variants[0];
    const runtime::Variant& selected =
        variants[static_cast<std::size_t>(tuner.selected_index())];
    auto fast = [](const runtime::Variant& variant,
                   const runtime::Input& input) {
        return variant.run_fast ? variant.run_fast(input)
                                : variant.run(input);
    };
    auto same_bits = [](const std::vector<float>& a,
                        const std::vector<float>& b) {
        return a.size() == b.size() &&
               std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
                   0;
    };

    const std::uint64_t seed = 100;
    const runtime::Input input(seed);
    const runtime::VariantRun exact_shared = fast(exact, input);
    const runtime::VariantRun selected_shared = fast(selected, input);
    const runtime::VariantRun exact_again = fast(exact, input);
    EXPECT_FALSE(selected_shared.trapped) << app().info().name;
    EXPECT_TRUE(same_bits(exact_shared.output, fast(exact, seed).output))
        << app().info().name;
    EXPECT_TRUE(
        same_bits(selected_shared.output, fast(selected, seed).output))
        << app().info().name << ": " << selected.label;
    EXPECT_TRUE(same_bits(exact_again.output, exact_shared.output))
        << app().info().name;
}

std::string
app_case_name(const ::testing::TestParamInfo<int>& info)
{
    static const char* names[] = {
        "BlackScholes", "Quasirandom", "GammaCorrection", "BoxMuller",
        "HotSpot", "ConvolutionSeparable", "GaussianFilter", "MeanFilter",
        "MatrixMultiply", "ImageDenoising", "NaiveBayes", "KernelDensity",
        "CumulativeHistogram"};
    return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppSuite, ::testing::Range(0, 13),
                         app_case_name);

TEST_P(AppSuite, DetectedPatternsMatchTableOne)
{
    // The detector must find every pattern family the app's Table 1 row
    // claims, on at least one kernel of its module.
    static const std::map<std::string, std::vector<analysis::PatternKind>>
        expectations = {
            {"BlackScholes", {analysis::PatternKind::Map}},
            {"Quasirandom Generator", {analysis::PatternKind::Map}},
            {"Gamma Correction", {analysis::PatternKind::Map}},
            {"BoxMuller", {analysis::PatternKind::ScatterGather}},
            {"HotSpot", {analysis::PatternKind::Stencil}},
            {"Convolution Separable",
             {analysis::PatternKind::Stencil,
              analysis::PatternKind::Reduction}},
            {"Gaussian Filter", {analysis::PatternKind::Stencil}},
            {"Mean Filter", {analysis::PatternKind::Stencil}},
            {"Matrix Multiply", {analysis::PatternKind::Reduction}},
            {"Image Denoising", {analysis::PatternKind::Reduction}},
            {"Naive Bayes", {analysis::PatternKind::Reduction}},
            {"Kernel Density Estimation",
             {analysis::PatternKind::Reduction}},
            {"Cumulative Frequency Histogram",
             {analysis::PatternKind::Scan}},
        };
    const auto& wanted = expectations.at(app().info().name);

    auto report = analysis::detect_patterns(app().module(), kGpu);
    std::set<analysis::PatternKind> found;
    for (const auto& kernel : report)
        for (auto kind : kernel.kinds())
            found.insert(kind);
    for (auto kind : wanted) {
        EXPECT_TRUE(found.count(kind))
            << app().info().name << " missing "
            << analysis::to_string(kind);
    }
}

TEST(AppRegistryTest, ThirteenApplications)
{
    auto apps = apps::make_all_applications();
    EXPECT_EQ(apps.size(), 13u);
}

TEST(AppRegistryTest, NamesAreUnique)
{
    auto apps = apps::make_all_applications();
    std::set<std::string> names;
    for (const auto& app : apps)
        names.insert(app->info().name);
    EXPECT_EQ(names.size(), apps.size());
}

}  // namespace
}  // namespace paraprox
