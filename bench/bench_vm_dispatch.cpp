/// @file
/// Interpreter dispatch benchmark: instrumented vs. fast execution mode
/// over the exact kernels of all 13 Fig. 11 applications.
///
/// For every application this harness runs the exact variant once per
/// mode per repetition and compares interpreter throughput in canonical
/// instructions per second (the instrumented dispatch count is the work
/// unit for both modes, so the ratio is a pure wall-clock speedup on
/// identical work).  Fast mode must (a) produce bit-identical outputs and
/// (b) reach a >= 1.3x geomean throughput over instrumented mode.
///
/// Flags:
///   --smoke   single repetition at a small scale; bit-identity is still
///             enforced but the throughput floor is reported, not
///             enforced (CI machines have unreliable timers).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/app.h"
#include "bench/bench_support.h"
#include "device/memory_model.h"
#include "runtime/tuner.h"
#include "support/stats.h"

namespace paraprox::bench {
namespace {

constexpr std::uint64_t kSeed = 101;

struct DispatchResult {
    std::string name;
    std::uint64_t canonical_instructions = 0;
    double instrumented_seconds = 0.0;
    double fast_seconds = 0.0;
    bool identical = false;
    double ratio() const { return instrumented_seconds / fast_seconds; }
};

bool
bit_identical(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

DispatchResult
measure(apps::Application& app, const device::DeviceModel& device,
        int repetitions)
{
    auto variants = app.variants(device);
    const runtime::Variant& exact = variants.at(0);
    DispatchResult result;
    result.name = app.info().name;

    // Warmup run per mode doubles as the bit-identity check and supplies
    // the canonical (instrumented) instruction count.
    auto instrumented = exact.run(kSeed);
    auto fast = exact.run_fast(kSeed);
    result.canonical_instructions = instrumented.instructions;
    result.identical = !instrumented.trapped && !fast.trapped &&
                       bit_identical(instrumented.output, fast.output);

    result.instrumented_seconds = instrumented.wall_seconds;
    result.fast_seconds = fast.wall_seconds;
    for (int rep = 1; rep < repetitions; ++rep) {
        result.instrumented_seconds = std::min(
            result.instrumented_seconds, exact.run(kSeed).wall_seconds);
        result.fast_seconds = std::min(result.fast_seconds,
                                       exact.run_fast(kSeed).wall_seconds);
    }
    return result;
}

int
run(bool smoke)
{
    const double scale = smoke ? 0.15 : 0.5;
    const int repetitions = smoke ? 1 : 5;
    const auto device = device::DeviceModel::gtx560();

    print_header(smoke ? "VM dispatch: fast vs. instrumented (smoke)"
                       : "VM dispatch: fast vs. instrumented");
    print_row({"Application", "canonical Mi", "instr Mi/s", "fast Mi/s",
               "speedup", "bit-id"},
              16);

    BenchReport report("vm_dispatch", smoke);
    report.config()
        .set("scale", scale)
        .set("repetitions", repetitions)
        .set("smoke", smoke);

    auto apps = make_scaled_apps(scale);
    std::vector<double> ratios;
    bool all_identical = true;
    for (const auto& app : apps) {
        const auto r = measure(*app, device, repetitions);
        const double mi =
            static_cast<double>(r.canonical_instructions) / 1e6;
        print_row({r.name, fmt(mi, 1), fmt(mi / r.instrumented_seconds, 1),
                   fmt(mi / r.fast_seconds, 1), fmt(r.ratio()),
                   r.identical ? "yes" : "NO"},
                  16);
        report.add_row()
            .set("app", r.name)
            .set("canonical_instructions", r.canonical_instructions)
            .set("instrumented_seconds", r.instrumented_seconds)
            .set("fast_seconds", r.fast_seconds)
            .set("speedup", r.ratio())
            .set("bit_identical", r.identical);
        ratios.push_back(r.ratio());
        all_identical = all_identical && r.identical;
    }

    const double geomean = stats::geomean(ratios);
    report.set_geomean(geomean);
    report.write();
    std::printf("\ngeomean interpreter speedup (fast / instrumented): "
                "%.2fx (floor 1.30x)\n",
                geomean);

    if (!all_identical) {
        std::printf("FAIL: fast mode diverged from instrumented outputs\n");
        return 1;
    }
    if (geomean < 1.3) {
        if (smoke) {
            std::printf("note: below floor, not enforced in smoke mode\n");
            return 0;
        }
        std::printf("FAIL: geomean below the 1.3x floor\n");
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}

}  // namespace
}  // namespace paraprox::bench

int
main(int argc, char** argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--smoke")
            smoke = true;
    return paraprox::bench::run(smoke);
}
