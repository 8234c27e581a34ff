/// @file
/// Figure 11 + Table 1 + the §4.2 headline result: speedup of all 13
/// applications under the GPU and CPU device models with TOQ = 90%,
/// alongside the paper's reported bars.
///
/// Also registers google-benchmark wall-clock measurements for two
/// representative applications (exact vs. Paraprox-selected variant), so
/// the harness exercises real execution time as well as modeled cycles.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_support.h"
#include "support/stats.h"
#include "vm/program_cache.h"

namespace paraprox::bench {
namespace {

constexpr double kToq = 90.0;
constexpr double kScale = 0.5;

/// Paper bars, approximately read off Fig. 11 (GPU, CPU).
struct PaperRow {
    const char* name;
    double gpu;
    double cpu;
};
const PaperRow kPaper[] = {
    {"BlackScholes", 1.6, 2.0},
    {"Quasirandom Generator", 1.5, 2.3},
    {"Gamma Correction", 3.2, 2.2},
    {"BoxMuller", 2.9, 2.2},
    {"HotSpot", 1.9, 1.6},
    {"Convolution Separable", 1.7, 1.6},
    {"Gaussian Filter", 2.2, 1.7},
    {"Mean Filter", 2.3, 1.9},
    {"Matrix Multiply", 2.4, 2.5},
    {"Image Denoising", 2.0, 1.9},
    {"Naive Bayes", 3.7, 1.5},
    {"Kernel Density Estimation", 1.5, 2.6},
    {"Cumulative Frequency Histogram", 2.3, 2.3},
};

void
run_figure()
{
    print_header("Table 1: application characteristics");
    print_row({"Application", "Domain", "Patterns", "Metric"}, 26);
    auto apps = make_scaled_apps(kScale);
    for (const auto& app : apps) {
        const auto info = app->info();
        print_row({info.name, info.domain, info.patterns,
                   runtime::to_string(info.metric)},
                  26);
    }

    print_header(
        "Figure 11: speedup at TOQ=90% (modeled cycles; paper bars beside)");
    print_row({"Application", "GPU", "paperGPU", "CPU", "paperCPU",
               "GPU choice"},
              16);

    const auto gpu = device::DeviceModel::gtx560();
    const auto cpu = device::DeviceModel::core_i7();
    std::vector<double> gpu_speedups, cpu_speedups;
    std::vector<double> gpu_wall, cpu_wall;

    for (std::size_t a = 0; a < apps.size(); ++a) {
        auto on_gpu = measure_app(*apps[a], gpu, kToq, {101, 202});
        auto on_cpu = measure_app(*apps[a], cpu, kToq, {101, 202});
        gpu_speedups.push_back(on_gpu.speedup);
        cpu_speedups.push_back(on_cpu.speedup);
        gpu_wall.push_back(on_gpu.wall_speedup);
        cpu_wall.push_back(on_cpu.wall_speedup);
        print_row({apps[a]->info().name, fmt(on_gpu.speedup),
                   fmt(kPaper[a].gpu), fmt(on_cpu.speedup),
                   fmt(kPaper[a].cpu), on_gpu.chosen},
                  16);
    }

    std::printf("\nHeadline (paper: 2.7x GPU / 2.5x CPU mean at TOQ=90%%)\n");
    std::printf("  modeled-cycle mean speedup: GPU %.2fx, CPU %.2fx\n",
                stats::mean(gpu_speedups), stats::mean(cpu_speedups));
    std::printf("  modeled-cycle geomean:      GPU %.2fx, CPU %.2fx\n",
                stats::geomean(gpu_speedups),
                stats::geomean(cpu_speedups));
    std::printf("  Fast-mode wall mean speedup: GPU-model %.2fx, "
                "CPU-model %.2fx\n",
                stats::mean(gpu_wall), stats::mean(cpu_wall));
}

/// google-benchmark wall-clock: exact vs. tuner-selected variant.
void
register_wall_benchmarks()
{
    struct Prepared {
        std::vector<runtime::Variant> variants;
        int selected;
    };
    static auto prepare = [](std::unique_ptr<apps::Application> app) {
        app->set_scale(0.25);
        const auto device = device::DeviceModel::gtx560();
        using clock = std::chrono::steady_clock;
        const auto ms = [](clock::time_point a, clock::time_point b) {
            return std::chrono::duration<double, std::milli>(b - a).count();
        };

        // Build the variant list twice: the first construction compiles
        // through the process-wide bytecode cache, the second hits it.
        const auto t0 = clock::now();
        auto variants = app->variants(device);
        const auto t1 = clock::now();
        auto warm = app->variants(device);
        const auto t2 = clock::now();
        std::printf("%s setup: %.1f ms cold, %.1f ms warm "
                    "(bytecode cache)\n",
                    app->info().name.c_str(), ms(t0, t1), ms(t1, t2));

        runtime::Tuner tuner(std::move(warm), app->info().metric, kToq);
        auto prepared = std::make_shared<Prepared>();
        prepared->variants = std::move(variants);
        prepared->selected =
            runtime::modeled_order(tuner.calibrate({7})).front();
        return prepared;
    };

    static auto blackscholes = prepare(apps::make_blackscholes());
    static auto matmul = prepare(apps::make_matrix_multiply());
    const auto cache = vm::ProgramCache::global().stats();
    std::printf("program cache: %zu entries, %llu hits, %llu misses\n\n",
                cache.entries, static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses));

    benchmark::RegisterBenchmark("BlackScholes/exact",
                                 [](benchmark::State& state) {
                                     for (auto _ : state)
                                         blackscholes->variants[0].run(9);
                                 });
    benchmark::RegisterBenchmark(
        "BlackScholes/paraprox", [](benchmark::State& state) {
            for (auto _ : state)
                blackscholes->variants[blackscholes->selected].run(9);
        });
    benchmark::RegisterBenchmark("MatrixMultiply/exact",
                                 [](benchmark::State& state) {
                                     for (auto _ : state)
                                         matmul->variants[0].run(9);
                                 });
    benchmark::RegisterBenchmark(
        "MatrixMultiply/paraprox", [](benchmark::State& state) {
            for (auto _ : state)
                matmul->variants[matmul->selected].run(9);
        });
}

}  // namespace
}  // namespace paraprox::bench

int
main(int argc, char** argv)
{
    paraprox::bench::register_wall_benchmarks();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    paraprox::bench::run_figure();
    return 0;
}
