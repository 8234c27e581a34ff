/// @file
/// Cumulative Frequency Histogram — the Scan application of Table 1.
///
/// Implements the canonical three-phase data-parallel scan (Fig. 9):
/// Phase I work-group scans (Hillis-Steele over __shared memory), Phase II
/// scan of the subarray sums, Phase III offset addition.  The approximate
/// variants compute only the first subarrays and synthesize the tail
/// (§3.4, Fig. 8) via transforms::scan_approx.

#include <memory>

#include "apps/app.h"
#include "apps/common.h"
#include "parser/parser.h"
#include "runtime/session.h"
#include "runtime/variant_run.h"
#include "support/error.h"
#include "support/rng.h"
#include "transforms/scan_tx.h"
#include "vm/program_cache.h"

namespace paraprox::apps {

namespace {

using exec::ArgPack;
using exec::Buffer;
using exec::LaunchConfig;

constexpr const char* kScanSource = R"(
__kernel void scan_phase1(__global float* in, __global float* out,
                          __global float* sums, __shared float* tile) {
    int l = get_local_id(0);
    int g = get_global_id(0);
    int n = get_local_size(0);
    tile[l] = in[g];
    barrier();
    for (int off = 1; off < n; off = off * 2) {
        float v = 0.0f;
        if (l >= off) { v = tile[l - off]; }
        barrier();
        tile[l] = tile[l] + v;
        barrier();
    }
    out[g] = tile[l];
    if (l == n - 1) { sums[get_group_id(0)] = tile[l]; }
}

__kernel void scan_add_offsets(__global float* out,
                               __global float* sums_scan) {
    int g = get_global_id(0);
    int grp = get_group_id(0);
    if (grp > 0) { out[g] = out[g] + sums_scan[grp - 1]; }
}
)";

class CumulativeHistogramApp final : public Application {
  public:
    CumulativeHistogramApp() : module_(parser::parse_module(kScanSource)) {}

    AppInfo
    info() const override
    {
        return {"Cumulative Frequency Histogram", "Signal Processing",
                "64K-bin histogram", "Scan",
                runtime::Metric::MeanRelativeError};
    }

    const ir::Module& module() const override { return module_; }
    void set_scale(double scale) override { scale_ = scale; }

    std::vector<runtime::Variant>
    variants(const device::DeviceModel& device) const override
    {
        const int sub = kSubarraySize;
        const int groups =
            std::max(8, static_cast<int>(kDefaultGroups * scale_));
        auto dev = std::make_shared<device::DeviceModel>(device);

        // The session flags the scan pattern (the transform needs the
        // host's subarray geometry, applied below) and supplies the phase
        // kernels' bytecode through the shared cache.
        core::CompileOptions options;
        options.device = device;
        options.training = [](const std::string&)
            -> std::optional<std::vector<std::vector<float>>> {
            return std::nullopt;
        };
        runtime::KernelSession session(module_, "scan_phase1", options);
        PARAPROX_CHECK(session.result().detection.is_scan,
                       "scan pattern not detected");
        auto phase1 = session.members()[0].program;
        auto phase3 = session.program("scan_add_offsets");

        // Tail kernels for the approximate variants are synthesized once
        // per geometry and cached; invocations are launch-only.
        struct Tail {
            std::shared_ptr<const vm::Program> program;
            int computed_elements = 0;
            int skipped_elements = 0;
        };
        auto make_tail = [&](int skipped) {
            auto plan = transforms::scan_approx(groups, skipped, sub);
            Tail tail;
            tail.program = vm::ProgramCache::global().get_or_compile(
                plan.module, plan.tail_kernel);
            tail.computed_elements =
                static_cast<int>(plan.computed_elements());
            tail.skipped_elements =
                static_cast<int>(plan.skipped_elements());
            return tail;
        };

        std::vector<runtime::Variant> variants;
        auto run_pipeline = [phase1, phase3, dev, sub, groups](
                                std::uint64_t seed, int skipped,
                                const Tail& tail, vm::ExecMode mode) {
            const int computed = groups - skipped;
            const int n = groups * sub;

            Rng rng(seed ^ 0xc4a2ull);
            std::vector<float> histogram(n);
            for (auto& v : histogram)
                v = static_cast<float>(rng.next_below(16));

            Buffer in = Buffer::from_floats(histogram);
            Buffer out = Buffer::zeros_f32(n);
            Buffer sums = Buffer::zeros_f32(groups);
            Buffer sums_scan = Buffer::zeros_f32(groups);
            Buffer dummy = Buffer::zeros_f32(1);

            // The wall leaves the input synthesis above out.
            const runtime::WallTimer wall;
            runtime::VariantRun total;

            auto accumulate = [&](const runtime::VariantRun& part) {
                total.modeled_cycles += part.modeled_cycles;
                total.instructions += part.instructions;
                total.trapped = total.trapped || part.trapped;
            };
            auto launch_one = [&](const vm::Program& program,
                                  const ArgPack& args,
                                  const LaunchConfig& config) {
                return mode == vm::ExecMode::Fast
                           ? runtime::run_fast_unpriced(program, args,
                                                        config)
                           : runtime::run_priced(program, args, config,
                                                 *dev);
            };

            // Phase I over the computed subarrays.
            {
                ArgPack args;
                args.buffer("in", in).buffer("out", out)
                    .buffer("sums", sums).shared("tile", sub);
                accumulate(launch_one(
                    *phase1, args,
                    LaunchConfig::linear(computed * sub, sub)));
            }
            // Phase II: scan the subarray sums with one work-group.
            {
                ArgPack args;
                args.buffer("in", sums).buffer("out", sums_scan)
                    .buffer("sums", dummy).shared("tile", computed);
                accumulate(launch_one(
                    *phase1, args,
                    LaunchConfig::linear(computed, computed)));
            }
            // Phase III over the computed region.
            {
                ArgPack args;
                args.buffer("out", out).buffer("sums_scan", sums_scan);
                accumulate(launch_one(
                    *phase3, args,
                    LaunchConfig::linear(computed * sub, sub)));
            }
            // Tail synthesis for the skipped region (§3.4.3).
            if (skipped > 0) {
                ArgPack args;
                args.buffer("out", out).buffer("sums_scan", sums_scan)
                    .scalar("computed", tail.computed_elements)
                    .scalar("last_sum", computed - 1);
                accumulate(launch_one(
                    *tail.program, args,
                    LaunchConfig::linear(tail.skipped_elements, sub)));
            }

            runtime::attach_output(total, out);
            total.wall_seconds = wall.seconds();
            return total;
        };

        auto add_variant = [&](std::string label, int aggressiveness,
                               int skipped, Tail tail) {
            runtime::Variant variant;
            variant.label = std::move(label);
            variant.aggressiveness = aggressiveness;
            variant.run = [run_pipeline, skipped,
                           tail](const runtime::Input& input) {
                return run_pipeline(input.seed(), skipped, tail,
                                    vm::ExecMode::Instrumented);
            };
            variant.run_fast = [run_pipeline, skipped,
                                tail](const runtime::Input& input) {
                return run_pipeline(input.seed(), skipped, tail,
                                    vm::ExecMode::Fast);
            };
            variants.push_back(std::move(variant));
        };
        add_variant("exact", 0, 0, {});
        const int quarter = groups / 4;
        const int half = groups / 2;
        add_variant("scan skip 1/4", 1, quarter, make_tail(quarter));
        add_variant("scan skip 1/2", 2, half, make_tail(half));
        return variants;
    }

  private:
    static constexpr int kSubarraySize = 128;
    static constexpr int kDefaultGroups = 256;

    ir::Module module_;
    double scale_ = 1.0;
};

}  // namespace

std::unique_ptr<Application>
make_cumulative_histogram()
{
    return std::make_unique<CumulativeHistogramApp>();
}

std::vector<std::unique_ptr<Application>>
make_all_applications()
{
    std::vector<std::unique_ptr<Application>> apps;
    apps.push_back(make_blackscholes());
    apps.push_back(make_quasirandom());
    apps.push_back(make_gamma_correction());
    apps.push_back(make_boxmuller());
    apps.push_back(make_hotspot());
    apps.push_back(make_convolution_separable());
    apps.push_back(make_gaussian_filter());
    apps.push_back(make_mean_filter());
    apps.push_back(make_matrix_multiply());
    apps.push_back(make_image_denoising());
    apps.push_back(make_naive_bayes());
    apps.push_back(make_kernel_density());
    apps.push_back(make_cumulative_histogram());
    return apps;
}

}  // namespace paraprox::apps
