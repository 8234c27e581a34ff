// End-to-end integration tests: the full Paraprox pipeline
// (parse -> detect -> transform -> compile -> execute -> tune) on custom
// kernels, cross-device behaviour, and the safety story.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/patterns.h"
#include "apps/app.h"
#include "device/memory_model.h"
#include "exec/launch.h"
#include "ir/printer.h"
#include "memo/table.h"
#include "parser/parser.h"
#include "runtime/quality.h"
#include "runtime/tuner.h"
#include "support/rng.h"
#include "transforms/memoize.h"
#include "transforms/reduction_tx.h"
#include "transforms/stencil_tx.h"
#include "vm/compiler.h"

namespace paraprox {
namespace {

using exec::ArgPack;
using exec::Buffer;
using exec::LaunchConfig;

TEST(PipelineTest, DetectTransformExecuteForCustomMapKernel)
{
    // A kernel Paraprox has never seen: detection must find the Map
    // pattern, the table search must satisfy the TOQ, and the generated
    // kernel must be quality-compliant when executed.
    auto module = parser::parse_module(R"(
        float score(float x) {
            return expf(-(x * x)) * logf(x + 3.0f) / (x + 1.5f);
        }
        __kernel void k(__global float* in, __global float* out) {
            int i = get_global_id(0);
            out[i] = score(in[i]);
        }
    )");
    const auto gpu = device::DeviceModel::gtx560();

    auto patterns = analysis::detect_patterns(module, gpu);
    ASSERT_EQ(patterns.size(), 1u);
    ASSERT_FALSE(patterns[0].memo_candidates.empty());
    EXPECT_TRUE(patterns[0].memo_candidates[0].profitable);

    Rng rng(77);
    std::vector<std::vector<float>> training(200);
    for (auto& sample : training)
        sample = {rng.uniform(0.0f, 2.0f)};
    memo::ScalarEvaluator evaluator(module, "score");
    auto search = memo::find_table_for_toq(evaluator, training, 92.0);
    EXPECT_GE(search.table.tuned_quality, 92.0);

    auto memoized = transforms::memoize_kernel(
        module, "k", "score", search.table,
        transforms::TableLocation::Global, transforms::LookupMode::Nearest);

    const int n = 4096;
    Buffer in = Buffer::from_floats(rng.uniform_vector(n, 0.0f, 2.0f));
    Buffer exact_out = Buffer::zeros_f32(n);
    Buffer approx_out = Buffer::zeros_f32(n);
    Buffer table = Buffer::from_floats(memoized.table.values);

    auto exact_prog = vm::compile_kernel(module, "k");
    ArgPack exact_args;
    exact_args.buffer("in", in).buffer("out", exact_out);
    exec::launch(exact_prog, exact_args, LaunchConfig::linear(n, 64));

    auto approx_prog = vm::compile_kernel(memoized.module,
                                          memoized.kernel_name);
    ArgPack approx_args;
    approx_args.buffer("in", in).buffer("out", approx_out);
    approx_args.buffer(memoized.table_buffer_param, table);
    auto result = exec::launch(approx_prog, approx_args,
                               LaunchConfig::linear(n, 64));
    ASSERT_FALSE(result.trapped);

    EXPECT_GE(runtime::quality_percent(runtime::Metric::L1Norm,
                                       exact_out.to_floats(),
                                       approx_out.to_floats()),
              88.0);
    // Transcendentals eliminated.
    EXPECT_EQ(result.stats.count(vm::Opcode::Exp), 0u);
}

TEST(PipelineTest, GeneratedKernelsRoundTripThroughParser)
{
    // Every transform's output must be printable as valid ParaCL — the
    // source-to-source property of the original system.
    auto module = parser::parse_module(R"(
        float g(float x) { return sinf(x) * sinf(x); }
        __kernel void map_k(__global float* in, __global float* out) {
            int i = get_global_id(0);
            out[i] = g(in[i]);
        }
        __kernel void red_k(__global float* in, __global float* out,
                            int n) {
            int t = get_global_id(0);
            float acc = 0.0f;
            for (int i = 0; i < n; i++) { acc += in[t * n + i]; }
            out[t] = acc;
        }
        __kernel void sten_k(__global float* in, __global float* out,
                             int w) {
            int x = get_global_id(0) + 1;
            int y = get_global_id(1) + 1;
            out[y * w + x] = in[y * w + x - 1] + in[y * w + x]
                           + in[y * w + x + 1];
        }
    )");

    memo::TableConfig config;
    config.inputs = {{"x", 0.0f, 6.28f, 6, false, 0.0f}};
    memo::ScalarEvaluator evaluator(module, "g");
    auto table = memo::build_table(evaluator, config);
    for (auto location :
         {transforms::TableLocation::Global,
          transforms::TableLocation::Constant,
          transforms::TableLocation::Shared}) {
        for (auto mode : {transforms::LookupMode::Nearest,
                          transforms::LookupMode::Linear}) {
            auto memoized = transforms::memoize_kernel(
                module, "map_k", "g", table, location, mode);
            EXPECT_NO_THROW(
                parser::parse_module(ir::to_source(memoized.module)))
                << to_string(location) << "/" << to_string(mode);
        }
    }

    auto reduced = transforms::reduction_approx(module, "red_k", 0, 4);
    EXPECT_NO_THROW(parser::parse_module(ir::to_source(reduced.module)));

    auto groups =
        analysis::detect_stencils(*module.find_function("sten_k"));
    ASSERT_FALSE(groups.empty());
    auto stencil = transforms::stencil_approx(
        module, "sten_k", groups[0], transforms::StencilScheme::Column, 1);
    EXPECT_NO_THROW(parser::parse_module(ir::to_source(stencil.module)));
}

TEST(PipelineTest, DevicesPickDifferentVariants)
{
    // The same variant list profiled under both models: the modeled
    // speedups must differ across devices (the paper's GPU/CPU
    // asymmetries), even if the selected label occasionally coincides.
    auto app = apps::make_kernel_density();
    app->set_scale(0.25);
    const auto gpu = device::DeviceModel::gtx560();
    const auto cpu = device::DeviceModel::core_i7();

    runtime::Tuner gpu_tuner(app->variants(gpu), app->info().metric, 90.0);
    runtime::Tuner cpu_tuner(app->variants(cpu), app->info().metric, 90.0);
    auto gpu_profiles = gpu_tuner.calibrate({3});
    auto cpu_profiles = cpu_tuner.calibrate({3});
    ASSERT_EQ(gpu_profiles.size(), cpu_profiles.size());
    bool any_differs = false;
    for (std::size_t v = 1; v < gpu_profiles.size(); ++v) {
        if (std::fabs(gpu_profiles[v].speedup - cpu_profiles[v].speedup) >
            0.05) {
            any_differs = true;
        }
    }
    EXPECT_TRUE(any_differs);
}

TEST(PipelineTest, TrappingVariantFallsBackAtRuntime)
{
    // A variant that calibrates cleanly but traps at runtime must fall
    // back to the exact kernel for that input and be demoted.
    auto module = parser::parse_module(R"(
        __kernel void fill(__global float* out, int bias) {
            int i = get_global_id(0);
            out[i * bias] = 1.0f;
        }
    )");
    auto program = std::make_shared<vm::Program>(
        vm::compile_kernel(module, "fill"));

    auto make_variant = [program](const std::string& label,
                                  int aggressiveness, int calib_bias,
                                  int runtime_bias, double cycles) {
        return runtime::Variant{
            label, aggressiveness,
            [program, calib_bias, runtime_bias,
             cycles](const runtime::Input& input) {
                const std::uint64_t seed = input.seed();
                Buffer out = Buffer::zeros_f32(64);
                ArgPack args;
                args.buffer("out", out);
                args.scalar("bias",
                            seed < 100 ? calib_bias : runtime_bias);
                auto launch = exec::launch(*program, args,
                                           LaunchConfig::linear(64, 64));
                runtime::VariantRun run;
                run.trapped = launch.trapped;
                run.output = out.to_floats();
                run.modeled_cycles = cycles;
                return run;
            }};
    };

    std::vector<runtime::Variant> variants;
    variants.push_back(make_variant("exact", 0, 1, 1, 100.0));
    // Fine during calibration (seed < 100), out-of-bounds afterwards.
    variants.push_back(make_variant("timebomb", 1, 1, 1000, 10.0));

    runtime::Tuner tuner(std::move(variants),
                         runtime::Metric::MeanRelativeError, 90.0);
    tuner.calibrate({1});
    EXPECT_EQ(tuner.selected_label(), "timebomb");
    auto run = tuner.invoke(500);  // traps, falls back
    EXPECT_FALSE(run.trapped);     // the fallback exact run is returned
    EXPECT_EQ(tuner.selected_label(), "exact");
    EXPECT_GE(tuner.stats().backoffs, 1u);
}

TEST(PipelineTest, ModeledCyclesTrackWorkReduction)
{
    // Halving the sampled iterations should roughly halve the modeled
    // cycles of a compute-bound reduction.  (A memory-bound one would
    // not: skipping every other 4-byte element still touches every cache
    // line, which the memory model faithfully charges.)
    auto module = parser::parse_module(R"(
        __kernel void k(__global float* in, __global float* out, int n) {
            int t = get_global_id(0);
            float x = in[t];
            float acc = 0.0f;
            for (int i = 0; i < n; i++) {
                acc += expf(x + (float)(i) * 0.01f);
            }
            out[t] = acc;
        }
    )");
    auto approx = transforms::reduction_approx(module, "k", 0, 2);

    const int threads = 64, per = 128;
    Rng rng(5);
    Buffer in = Buffer::from_floats(
        rng.uniform_vector(threads * per, 0.0f, 1.0f));
    const auto gpu = device::DeviceModel::gtx560();

    auto run = [&](const ir::Module& m, const std::string& kernel) {
        Buffer out = Buffer::zeros_f32(threads);
        ArgPack args;
        args.buffer("in", in).buffer("out", out).scalar("n", per);
        return device::run_modeled(vm::compile_kernel(m, kernel), args,
                                   LaunchConfig::linear(threads, 32), gpu);
    };
    auto exact = run(module, "k");
    auto sampled = run(approx.module, approx.kernel_name);
    const double ratio = exact.cycles / sampled.cycles;
    EXPECT_GT(ratio, 1.6);
    EXPECT_LT(ratio, 2.4);
}

}  // namespace
}  // namespace paraprox
