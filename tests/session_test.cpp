// Tests for the KernelSession execution layer: bytecode caching across
// sessions, automatic table binding, and parallel-calibration parity.

#include <gtest/gtest.h>

#include <algorithm>

#include "device/memory_model.h"
#include "parser/parser.h"
#include "runtime/session.h"
#include "support/rng.h"
#include "vm/program_cache.h"

namespace paraprox::runtime {
namespace {

// A Map kernel with a pure, expensive callee: memoization applies, so the
// session carries members with lookup-table bindings.
const char* kSource = R"(
float curve(float x) {
    float s = 1.0f / (1.0f + expf(-x));
    return s * sqrtf(1.0f + x * x) + logf(1.0f + expf(x));
}

__kernel void apply(__global float* in, __global float* out) {
    int i = get_global_id(0);
    out[i] = curve(in[i]);
}
)";

constexpr int kN = 256;

core::CompileOptions
test_options()
{
    core::CompileOptions options;
    options.toq = 90.0;
    options.device = device::DeviceModel::gtx560();
    options.training = core::uniform_training(-4.0f, 4.0f);
    return options;
}

core::LaunchPlan
test_plan()
{
    core::LaunchPlan plan;
    plan.config = exec::LaunchConfig::linear(kN, 64);
    plan.output_buffer = "out";
    plan.bind_inputs =
        [](std::uint64_t seed, exec::ArgPack& args,
           std::vector<std::unique_ptr<exec::Buffer>>& storage) {
            Rng rng(seed);
            storage.push_back(
                std::make_unique<exec::Buffer>(exec::Buffer::from_floats(
                    rng.uniform_vector(kN, -4.0f, 4.0f))));
            args.buffer("in", *storage.back());
            storage.push_back(std::make_unique<exec::Buffer>(
                exec::Buffer::zeros_f32(kN)));
            args.buffer("out", *storage.back());
        };
    return plan;
}

TEST(SessionTest, SecondSessionHitsProgramCache)
{
    auto module = parser::parse_module(kSource);
    auto& cache = vm::ProgramCache::global();
    cache.clear();

    KernelSession first(module, "apply", test_options());
    const std::size_t members = first.members().size();
    ASSERT_GE(members, 2u);  // exact + at least one approximate variant.

    const auto after_first = cache.stats();
    EXPECT_EQ(after_first.misses, members);
    EXPECT_EQ(after_first.entries, members);

    // Same module, same options: generation is deterministic, so every
    // member's bytecode is already cached — zero recompilation.
    KernelSession second(module, "apply", test_options());
    const auto after_second = cache.stats();
    EXPECT_EQ(second.members().size(), members);
    EXPECT_EQ(after_second.misses, after_first.misses);
    EXPECT_EQ(after_second.hits, after_first.hits + members);
    EXPECT_EQ(after_second.entries, members);
}

TEST(SessionTest, TableAutoBindingMatchesHandWiredLaunch)
{
    auto module = parser::parse_module(kSource);
    KernelSession session(module, "apply", test_options());
    const auto plan = test_plan();

    // A memoized member: its lookup table must reach the ArgPack.  The
    // session's variants are index-aligned with its members.
    const auto& members = session.members();
    const auto it = std::find_if(
        members.begin(), members.end(),
        [](const SessionMember& member) { return !member.tables.empty(); });
    ASSERT_NE(it, members.end());
    const SessionMember* memoized = &*it;
    const Variant variant = session.variants(plan)[it - members.begin()];
    ASSERT_EQ(variant.label, memoized->label);

    const std::uint64_t seed = 42;
    const VariantRun via_session = variant.run(seed);
    EXPECT_FALSE(via_session.trapped);

    // Hand-wire the identical launch: bind inputs and tables explicitly,
    // run under the device model, and read the output buffer back.
    exec::ArgPack args;
    std::vector<std::unique_ptr<exec::Buffer>> storage;
    plan.bind_inputs(seed, args, storage);
    core::bind_tables(memoized->tables, args, storage);
    auto modeled = device::run_modeled(*memoized->program, args,
                                       plan.config,
                                       session.options().device);
    const exec::Buffer* out = args.find_buffer("out");
    ASSERT_NE(out, nullptr);

    EXPECT_DOUBLE_EQ(via_session.modeled_cycles, modeled.cycles);
    ASSERT_EQ(via_session.output.size(), static_cast<std::size_t>(kN));
    EXPECT_EQ(via_session.output, out->to_floats());
}

TEST(SessionTest, MemberBatchMatchesPerSeedRuns)
{
    auto module = parser::parse_module(kSource);
    KernelSession session(module, "apply", test_options());
    const auto plan = test_plan();

    // Batch a memoized member's variant (tables bound once for the whole
    // batch) and compare member-for-member against solo fast runs.
    const auto& members = session.members();
    const auto it = std::find_if(
        members.begin(), members.end(),
        [](const SessionMember& member) { return !member.tables.empty(); });
    ASSERT_NE(it, members.end());
    const Variant variant = session.variants(plan)[it - members.begin()];

    const std::vector<std::uint64_t> seeds = {11, 22, 33, 44};
    const std::vector<VariantRun> batched = variant.run_batch(seeds);
    ASSERT_EQ(batched.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        const VariantRun solo = variant.run_fast(seeds[i]);
        EXPECT_FALSE(batched[i].trapped);
        ASSERT_EQ(batched[i].output.size(),
                  static_cast<std::size_t>(kN));
        EXPECT_EQ(batched[i].output, solo.output);
    }
}

TEST(SessionTest, ParallelCalibrationSelectsSameVariantAsSerial)
{
    auto module = parser::parse_module(kSource);
    KernelSession session(module, "apply", test_options());
    const auto plan = test_plan();
    const std::vector<std::uint64_t> seeds = {1, 2, 3};

    auto parallel_tuner = session.tuner(plan, Metric::MeanRelativeError);
    auto serial_tuner = session.tuner(plan, Metric::MeanRelativeError);
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
    }
}

TEST(SessionTest, MembersExposeFamilyMetadata)
{
    auto module = parser::parse_module(kSource);
    KernelSession session(module, "apply", test_options());

    EXPECT_EQ(session.members()[0].label, "exact");
    EXPECT_EQ(session.members()[0].aggressiveness, 0);
    EXPECT_EQ(session.members()[0].kernel_name, "apply");
    EXPECT_TRUE(session.members()[0].tables.empty());

    const auto* exact = session.find_member("exact");
    ASSERT_NE(exact, nullptr);
    EXPECT_EQ(exact, &session.members()[0]);
    EXPECT_EQ(session.find_member("no such member"), nullptr);

    // Source-module kernels resolve through the same cache.
    EXPECT_NE(session.program("apply"), nullptr);
    EXPECT_EQ(session.program("apply"), exact->program);
}

}  // namespace
}  // namespace paraprox::runtime
