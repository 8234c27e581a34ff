// Tests for the KernelSession execution layer: bytecode caching across
// sessions, automatic table binding, and parallel-calibration parity.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "device/memory_model.h"
#include "parser/parser.h"
#include "runtime/session.h"
#include "serve/service.h"
#include "support/faultinject.h"
#include "support/rng.h"
#include "vm/program_cache.h"
#include "wall_double.h"

namespace paraprox::runtime {
namespace {

// A Map kernel with a pure, expensive callee: memoization applies, so the
// session carries members with lookup-table bindings.  The callee's loop
// makes it cost several table lookups, so the memoized selection beats
// exact in wall clock by a wide margin and calibration serves it (a
// variant slower than exact on every training input is never served).
const char* kSource = R"(
float curve(float x) {
    float s = 1.0f / (1.0f + expf(-x));
    float y = s * sqrtf(1.0f + x * x) + logf(1.0f + expf(x));
    for (int k = 0; k < 16; k++) {
        y = y + 0.05f * logf(1.0f + expf(x - y));
    }
    return y;
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

    // The sweeps compare modeled rankings, so the runs report no wall:
    // with the box oversubscribed fivefold, the wall verdict dropped
    // every approximation (6.2x of exact alone) in 1 of 120 serial sweeps.
    Tuner parallel_tuner(test_doubles::without_wall(session.variants(plan)),
                         Metric::MeanRelativeError, test_options().toq);
    Tuner serial_tuner(test_doubles::without_wall(session.variants(plan)),
                       Metric::MeanRelativeError, test_options().toq);
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

// A float atomic reduction spread over 64 groups.  The groups run as pool
// tasks, and Fast mode steps a group's work-items in lockstep where
// Instrumented mode runs them one at a time, so the order of the
// additions, and with it the last bits of the sum, changes between
// launches and between modes.
const char* kAtomicSource = R"(
__kernel void total(__global float* in, __global float* sum, int n) {
    int t = get_global_id(0);
    for (int i = 0; i < n; i++) {
        atomic_add(sum, 0, in[t * n + i]);
    }
}
)";

constexpr int kAtomicItems = 64 * 16;
constexpr int kAtomicPerItem = 4;

TEST(SessionTest, FloatAtomicReductionCalibratesTheSameEveryTime)
{
    auto module = parser::parse_module(kAtomicSource);
    KernelSession session(module, "total", test_options());
    ASSERT_GE(session.members().size(), 2u);

    core::LaunchPlan plan;
    plan.config = exec::LaunchConfig::linear(kAtomicItems, 16);
    plan.output_buffer = "sum";
    plan.bind_inputs =
        [](std::uint64_t seed, exec::ArgPack& args,
           std::vector<std::unique_ptr<exec::Buffer>>& storage) {
            Rng rng(seed);
            storage.push_back(
                std::make_unique<exec::Buffer>(exec::Buffer::from_floats(
                    rng.uniform_vector(kAtomicItems * kAtomicPerItem, 0.0f,
                                       1.0f))));
            args.buffer("in", *storage.back());
            storage.push_back(
                std::make_unique<exec::Buffer>(exec::Buffer::zeros_f32(1)));
            args.buffer("sum", *storage.back());
            args.scalar("n", kAtomicPerItem);
        };

    // Calibration prices each variant in one launch and scores it in
    // others; outputs that differ only by summation order must neither
    // fail the exact kernel nor trap an approximate variant.  The runs
    // report no wall: on a loaded machine the selection (1.9x of exact
    // in isolation) can lose to exact on every input now and then.
    std::string selected;
    for (int round = 0; round < 8; ++round) {
        Tuner tuner(test_doubles::without_wall(session.variants(plan)),
                    Metric::MeanRelativeError, test_options().toq);
        const auto& profiles =
            tuner.calibrate({1, 2, 3}, /*parallel=*/round % 2 == 0);
        for (const VariantProfile& profile : profiles)
            EXPECT_FALSE(profile.trapped) << profile.label;
        if (round == 0)
            selected = tuner.selected_label();
        EXPECT_EQ(tuner.selected_label(), selected) << "round " << round;
    }
    EXPECT_NE(selected, "exact");
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

// ---- One build per input ----------------------------------------------------
//
// Every run on one runtime::Input shares one build of it: the closures
// bind their inputs once per Input and launch on copies of only the
// buffers each program writes.

bool
same_bits(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Reads and writes one buffer: a launch that wrote the shared build would
// hand the next launch on the same Input doubled data.
const char* kInPlaceSource = R"(
__kernel void twice(__global float* data) {
    int i = get_global_id(0);
    data[i] = data[i] * 2.0f + 1.0f;
}
)";

TEST(InputBuildTest, InPlaceKernelRunsTwiceOnOneInputAsOnFreshBuilds)
{
    auto module = parser::parse_module(kInPlaceSource);
    core::LaunchPlan plan;
    plan.config = exec::LaunchConfig::linear(kN, 64);
    plan.output_buffer = "data";
    plan.bind_inputs =
        [](std::uint64_t seed, exec::ArgPack& args,
           std::vector<std::unique_ptr<exec::Buffer>>& storage) {
            Rng rng(seed);
            storage.push_back(
                std::make_unique<exec::Buffer>(exec::Buffer::from_floats(
                    rng.uniform_vector(kN, -4.0f, 4.0f))));
            args.buffer("data", *storage.back());
        };
    const std::vector<Variant> variants = core::make_variants(
        module, "twice", std::vector<core::GeneratedKernel>{}, plan,
        device::DeviceModel::gtx560());
    ASSERT_EQ(variants.size(), 1u);

    const Input input(7);
    const VariantRun fresh = variants[0].run_fast(7);
    for (int round = 0; round < 2; ++round) {
        EXPECT_TRUE(same_bits(variants[0].run_fast(input).output,
                              fresh.output))
            << "round " << round;
        EXPECT_TRUE(
            same_bits(variants[0].run(input).output, fresh.output))
            << "round " << round;
    }
}

TEST(InputBuildTest, FloatAtomicTargetIsNotAccumulatedAcrossRuns)
{
    auto module = parser::parse_module(kAtomicSource);
    core::LaunchPlan plan;
    plan.config = exec::LaunchConfig::linear(kAtomicItems, 16);
    plan.output_buffer = "sum";
    plan.bind_inputs =
        [](std::uint64_t seed, exec::ArgPack& args,
           std::vector<std::unique_ptr<exec::Buffer>>& storage) {
            Rng rng(seed);
            storage.push_back(
                std::make_unique<exec::Buffer>(exec::Buffer::from_floats(
                    rng.uniform_vector(kAtomicItems * kAtomicPerItem, 0.0f,
                                       1.0f))));
            args.buffer("in", *storage.back());
            storage.push_back(
                std::make_unique<exec::Buffer>(exec::Buffer::zeros_f32(1)));
            args.buffer("sum", *storage.back());
            args.scalar("n", kAtomicPerItem);
        };
    const std::vector<Variant> variants = core::make_variants(
        module, "total", std::vector<core::GeneratedKernel>{}, plan,
        device::DeviceModel::gtx560());

    // The sum's last bits follow the order of the additions (see
    // docs/cost_model.md), so runs agree within the TOQ, not bit for bit;
    // a sum that kept the previous run's total would be twice as large.
    const Input input(3);
    const VariantRun fresh = variants[0].run_fast(3);
    for (int round = 0; round < 3; ++round) {
        EXPECT_GE(quality_percent(Metric::MeanRelativeError, fresh.output,
                                  variants[0].run_fast(input).output),
                  90.0)
            << "round " << round;
    }
}

/// test_plan() whose bind_inputs counts its calls in @p builds.
core::LaunchPlan
counting_plan(std::shared_ptr<std::atomic<int>> builds)
{
    core::LaunchPlan plan = test_plan();
    plan.bind_inputs = [bind = plan.bind_inputs, builds](
                           std::uint64_t seed, exec::ArgPack& args,
                           std::vector<std::unique_ptr<exec::Buffer>>&
                               storage) {
        builds->fetch_add(1);
        bind(seed, args, storage);
    };
    return plan;
}

TEST(InputBuildTest, CalibrationBuildsEachTrainingInputOnce)
{
    auto module = parser::parse_module(kSource);
    KernelSession session(module, "apply", test_options());
    ASSERT_GE(session.members().size(), 2u);
    auto builds = std::make_shared<std::atomic<int>>(0);
    const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
    for (const bool parallel : {true, false}) {
        Tuner tuner = session.tuner(counting_plan(builds),
                                    Metric::MeanRelativeError);
        builds->store(0);
        tuner.calibrate(seeds, parallel);
        // V priced launches and V x S Fast ones, over S builds.
        EXPECT_EQ(builds->load(), static_cast<int>(seeds.size()))
            << (parallel ? "parallel" : "serial");
    }
}

TEST(InputBuildTest, InvokeAuditReusesTheServedBuild)
{
    auto module = parser::parse_module(kSource);
    KernelSession session(module, "apply", test_options());
    auto builds = std::make_shared<std::atomic<int>>(0);
    Tuner tuner = session.tuner(counting_plan(builds),
                                Metric::MeanRelativeError, -1.0,
                                /*check_interval=*/1);
    tuner.calibrate({1, 2, 3});
    ASSERT_NE(tuner.selected_index(), 0);

    builds->store(0);
    const VariantRun run = tuner.invoke(100);
    EXPECT_FALSE(run.trapped);
    EXPECT_EQ(tuner.stats().quality_checks, 1u);
    EXPECT_EQ(builds->load(), 1);
}

TEST(InputBuildTest, WallLeavesTheInputBuildOut)
{
    // Every variant of a family shares the input build, so a variant's
    // wall starts once the build returns: a run's wall is at least the
    // 20 ms build shorter than the whole call, however loaded the box.
    auto module = parser::parse_module(kSource);
    KernelSession session(module, "apply", test_options());
    core::LaunchPlan plan = test_plan();
    plan.bind_inputs = [bind = plan.bind_inputs](
                           std::uint64_t seed, exec::ArgPack& args,
                           std::vector<std::unique_ptr<exec::Buffer>>&
                               storage) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        bind(seed, args, storage);
    };
    for (const Variant& variant : session.variants(plan)) {
        // A fresh Input per run: each run builds.
        const auto start = std::chrono::steady_clock::now();
        const VariantRun run = variant.run_fast(9);
        const double call = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
        EXPECT_GT(run.wall_seconds, 0.0) << variant.label;
        EXPECT_LE(run.wall_seconds, call - 0.020) << variant.label;
    }
}

/// A one-worker service over the counting family "k" that shadows, and
/// probes, every eligible request and never recalibrates.  One failure
/// quarantines a variant, and a half-open probe is due one invocation
/// later.
class CountingServiceTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        fault::FaultInjector::instance().disarm();
        module_ = parser::parse_module(kSource);
        session_ = std::make_unique<KernelSession>(module_, "apply",
                                                   test_options());
        serve::ServiceConfig config;
        config.num_workers = 1;
        config.monitor.shadow_interval = 1;
        config.monitor.trigger_streak = 1000000;
        config.watchdog.hang_floor = std::chrono::milliseconds(60);
        config.quarantine = {/*failure_threshold=*/1, /*failure_window=*/64,
                             /*cooldown=*/1, /*cooldown_growth=*/1.0,
                             /*max_cooldown=*/1, /*probe_quota=*/1};
        service_ = std::make_unique<serve::ApproxService>(config);
        service_->register_kernel("k",
                                  session_->variants(counting_plan(builds_)),
                                  Metric::MeanRelativeError, 90.0,
                                  {1, 2, 3});
        ASSERT_NE(service_->kernel_snapshot("k").selected, "exact");
        builds_->store(0);
    }

    void
    TearDown() override
    {
        fault::FaultInjector::instance().disarm();
    }

    serve::Response
    serve_one(std::uint64_t seed)
    {
        serve::Ticket ticket = service_->submit("k", seed);
        EXPECT_TRUE(ticket.accepted);
        return ticket.response.get();
    }

    /// Arm @p site once on the generated variants' kernels (their names
    /// contain "__"; the exact kernel's does not).
    static void
    arm_once(const std::string& site)
    {
        fault::FaultSpec spec;
        spec.site = site;
        spec.match = "__";
        spec.every = 1;
        spec.limit = 1;
        fault::FaultInjector::instance().arm({spec});
    }

    std::shared_ptr<std::atomic<int>> builds_ =
        std::make_shared<std::atomic<int>>(0);
    ir::Module module_;
    std::unique_ptr<KernelSession> session_;
    std::unique_ptr<serve::ApproxService> service_;
};

TEST_F(CountingServiceTest, ShadowedRequestBuildsOnce)
{
    const serve::Response response = serve_one(100);
    EXPECT_TRUE(response.shadowed);
    EXPECT_EQ(builds_->load(), 1);
}

TEST_F(CountingServiceTest, TrapFallbackBuildsOnce)
{
    arm_once("vm.trap");
    const serve::Response response = serve_one(100);
    EXPECT_TRUE(response.trap_fallback);
    EXPECT_EQ(response.served_by, "exact");
    EXPECT_EQ(builds_->load(), 1);
}

TEST_F(CountingServiceTest, WatchdogFallbackBuildsOnce)
{
    arm_once("vm.hang");
    const serve::Response response = serve_one(100);
    EXPECT_TRUE(response.watchdog_fallback);
    EXPECT_FALSE(response.run.output.empty());
    EXPECT_EQ(builds_->load(), 1);
}

TEST_F(CountingServiceTest, HalfOpenProbeDetourBuildsOnce)
{
    // A trap quarantines the selection; the next request serves exact and
    // moves the invocation clock past the cooldown, so the one after it
    // rides a half-open probe.
    arm_once("vm.trap");
    EXPECT_TRUE(serve_one(100).trap_fallback);
    EXPECT_EQ(serve_one(101).served_by, "exact");
    ASSERT_EQ(service_->kernel_snapshot("k").tuner.probes, 0u);

    builds_->store(0);
    const serve::Response response = serve_one(102);
    EXPECT_EQ(service_->kernel_snapshot("k").tuner.probes, 1u);
    EXPECT_EQ(response.served_by, "exact");
    EXPECT_EQ(builds_->load(), 1);
}

}  // namespace
}  // namespace paraprox::runtime
