/// @file
/// The Stencil / Partition applications of Table 1: HotSpot (physics,
/// 5-point), Convolution Separable (1x17 row stencil + 17-tap column
/// reduction loop), Gaussian Filter (weighted 3x3), and Mean Filter
/// (manually-unrolled 3x3).  Approximated with the §3.2 tile schemes
/// (and, for Convolution Separable, §3.3 reduction sampling as well).

#include <cmath>
#include <memory>

#include "apps/app.h"
#include "apps/common.h"
#include "parser/parser.h"
#include "runtime/session.h"
#include "runtime/variant_run.h"
#include "support/error.h"
#include "support/rng.h"

namespace paraprox::apps {

namespace {

using exec::ArgPack;
using exec::Buffer;
using exec::LaunchConfig;

/// A CompileOptions training provider that declines every callee —
/// stencil apps approximate tiles, not function calls.
std::optional<std::vector<std::vector<float>>>
no_training(const std::string&)
{
    return std::nullopt;
}

/// Shared shape for single-kernel image-stencil apps.
struct StencilAppSpec {
    AppInfo info;
    std::string source;
    std::string kernel;
    int width = 130;   ///< Includes a 1-pixel border.
    int height = 130;
    /// Bind inputs; returns nothing, output buffer bound as "out".
    std::function<void(std::uint64_t seed, int w, int h, ArgPack&,
                       std::vector<std::unique_ptr<Buffer>>&)>
        bind_inputs;
};

class StencilApp final : public Application {
  public:
    explicit StencilApp(StencilAppSpec spec)
        : spec_(std::move(spec)),
          module_(parser::parse_module(spec_.source)) {}

    AppInfo info() const override { return spec_.info; }
    const ir::Module& module() const override { return module_; }
    void set_scale(double scale) override { scale_ = scale; }

    std::optional<Setup>
    setup(const device::DeviceModel& device) const override
    {
        // rd=1 sweep: the driver emits row/column (agg 1) and center
        // (agg 2) schemes for the detected tile.
        core::CompileOptions options;
        options.toq = 90.0;
        options.device = device;
        options.training = no_training;
        options.reaching_distances = {1};

        Setup out;
        out.session = std::make_shared<runtime::KernelSession>(
            module_, spec_.kernel, options);
        const int w = dim(spec_.width);
        const int h = dim(spec_.height);
        out.plan.config = LaunchConfig::grid2d(w - 2, h - 2, 16, 4);
        out.plan.output_buffer = "out";
        out.plan.bind_inputs = [bind = spec_.bind_inputs, w, h](
                                   std::uint64_t seed, ArgPack& args,
                                   std::vector<std::unique_ptr<Buffer>>&
                                       holder) {
            bind(seed, w, h, args, holder);
        };
        return out;
    }

    std::vector<runtime::Variant>
    variants(const device::DeviceModel& device) const override
    {
        const auto s = setup(device);
        return s->session->variants(s->plan);
    }

  private:
    int
    dim(int base) const
    {
        const int interior = static_cast<int>((base - 2) * scale_);
        // Interior must stay divisible by the 16x4 work-group shape.
        const int snapped = std::max(16, interior - interior % 16);
        return snapped + 2;
    }

    StencilAppSpec spec_;
    ir::Module module_;
    double scale_ = 1.0;
};

void
bind_image_input(std::uint64_t seed, int w, int h, ArgPack& args,
                 std::vector<std::unique_ptr<Buffer>>& holder)
{
    holder.push_back(std::make_unique<Buffer>(
        Buffer::from_floats(make_correlated_image(w, h, seed))));
    args.buffer("in", *holder.back());
    holder.push_back(std::make_unique<Buffer>(
        Buffer::zeros_f32(static_cast<std::size_t>(w) * h)));
    args.buffer("out", *holder.back());
    args.scalar("w", w);
}

// ---- Gaussian Filter (weighted 3x3) -------------------------------------------

constexpr const char* kGaussianSource = R"(
__kernel void gaussian(__global float* in, __global float* out, int w) {
    int x = get_global_id(0) + 1;
    int y = get_global_id(1) + 1;
    float acc = 0.0625f * in[(y - 1) * w + x - 1]
              + 0.125f  * in[(y - 1) * w + x]
              + 0.0625f * in[(y - 1) * w + x + 1]
              + 0.125f  * in[y * w + x - 1]
              + 0.25f   * in[y * w + x]
              + 0.125f  * in[y * w + x + 1]
              + 0.0625f * in[(y + 1) * w + x - 1]
              + 0.125f  * in[(y + 1) * w + x]
              + 0.0625f * in[(y + 1) * w + x + 1];
    out[y * w + x] = acc;
}
)";

// ---- Mean Filter (manually unrolled 3x3) ----------------------------------------

constexpr const char* kMeanSource = R"(
float mean9(float a, float b, float c, float d, float e, float f,
            float g, float h, float i) {
    return (a + b + c + d + e + f + g + h + i) * 0.111111111f;
}

__kernel void mean_filter(__global float* in, __global float* out, int w) {
    int x = get_global_id(0) + 1;
    int y = get_global_id(1) + 1;
    out[y * w + x] = mean9(in[(y - 1) * w + x - 1], in[(y - 1) * w + x],
                           in[(y - 1) * w + x + 1], in[y * w + x - 1],
                           in[y * w + x], in[y * w + x + 1],
                           in[(y + 1) * w + x - 1], in[(y + 1) * w + x],
                           in[(y + 1) * w + x + 1]);
}
)";

// ---- HotSpot (5-point thermal step) -----------------------------------------------

constexpr const char* kHotSpotSource = R"(
__kernel void hotspot(__global float* in, __global float* power,
                      __global float* out, int w, float cap,
                      float ambient) {
    int x = get_global_id(0) + 1;
    int y = get_global_id(1) + 1;
    float center = in[y * w + x];
    float delta = in[(y - 1) * w + x] + in[(y + 1) * w + x]
                + in[y * w + x - 1] + in[y * w + x + 1]
                - 4.0f * center;
    out[y * w + x] = center + cap * (power[y * w + x]
                   + 0.25f * delta + 0.05f * (ambient - center));
}
)";

void
bind_hotspot(std::uint64_t seed, int w, int h, ArgPack& args,
             std::vector<std::unique_ptr<Buffer>>& holder)
{
    // Temperature field: smooth, around 320K; power: sparse hot cells.
    auto temp = make_correlated_image(w, h, seed ^ 0x407ull, 1.0f);
    for (auto& t : temp)
        t = 300.0f + t * 0.2f;
    holder.push_back(std::make_unique<Buffer>(Buffer::from_floats(temp)));
    args.buffer("in", *holder.back());

    Rng rng(seed ^ 0x50Ae7ull);
    std::vector<float> power(static_cast<std::size_t>(w) * h, 0.01f);
    for (int i = 0; i < w * h / 64; ++i)
        power[rng.next_below(power.size())] = rng.uniform(0.5f, 2.0f);
    holder.push_back(std::make_unique<Buffer>(Buffer::from_floats(power)));
    args.buffer("power", *holder.back());

    holder.push_back(std::make_unique<Buffer>(
        Buffer::zeros_f32(static_cast<std::size_t>(w) * h)));
    args.buffer("out", *holder.back());
    args.scalar("w", w).scalar("cap", 0.5f).scalar("ambient", 300.0f);
}

// ---- Convolution Separable ----------------------------------------------------------

/// Row pass: manually unrolled 17-tap stencil.  Column pass: a 17-trip
/// reduction loop (acc += in[...] * weight), giving the app its
/// Stencil-Reduction label.
constexpr const char* kConvSource = R"(
__kernel void conv_row(__global float* in, __global float* tmp, int w) {
    int x = get_global_id(0) + 8;
    int y = get_global_id(1);
    float acc = 0.000872f * in[y * w + x - 8]
              + 0.003383f * in[y * w + x - 7]
              + 0.010558f * in[y * w + x - 6]
              + 0.026521f * in[y * w + x - 5]
              + 0.053610f * in[y * w + x - 4]
              + 0.087208f * in[y * w + x - 3]
              + 0.114169f * in[y * w + x - 2]
              + 0.120295f * in[y * w + x - 1]
              + 0.166757f * in[y * w + x]
              + 0.120295f * in[y * w + x + 1]
              + 0.114169f * in[y * w + x + 2]
              + 0.087208f * in[y * w + x + 3]
              + 0.053610f * in[y * w + x + 4]
              + 0.026521f * in[y * w + x + 5]
              + 0.010558f * in[y * w + x + 6]
              + 0.003383f * in[y * w + x + 7]
              + 0.000872f * in[y * w + x + 8];
    tmp[y * w + x] = acc;
}

__kernel void conv_col(__global float* tmp, __global float* weights,
                       __global float* out, int w) {
    int x = get_global_id(0) + 8;
    int y = get_global_id(1) + 8;
    float acc = 0.0f;
    for (int k = 0; k < 17; k++) {
        acc += tmp[(y + k - 8) * w + x] * weights[k];
    }
    out[y * w + x] = acc;
}
)";

class ConvolutionApp final : public Application {
  public:
    ConvolutionApp() : module_(parser::parse_module(kConvSource)) {}

    AppInfo
    info() const override
    {
        return {"Convolution Separable", "Image Processing",
                "176x176 image, 17-tap separable kernel",
                "Stencil-Reduction", runtime::Metric::L2Norm};
    }

    const ir::Module& module() const override { return module_; }
    void set_scale(double scale) override { scale_ = scale; }

    std::vector<runtime::Variant>
    variants(const device::DeviceModel& device) const override
    {
        const int w = dim();
        const int h = w;
        auto dev = std::make_shared<device::DeviceModel>(device);

        // Two sessions over the same module: the row pass is approximated
        // as a stencil (1x17 tile merges along x: column scheme), the
        // column pass as a sampled reduction.  Programs come from the
        // shared bytecode cache, so the exact kernels and any variant
        // reused across pipelines are compiled once.
        core::CompileOptions row_options;
        row_options.toq = 90.0;
        row_options.device = device;
        row_options.training = no_training;
        row_options.reaching_distances = {1, 2};
        runtime::KernelSession row_session(module_, "conv_row",
                                           row_options);

        core::CompileOptions col_options;
        col_options.toq = 90.0;
        col_options.device = device;
        col_options.training = no_training;
        col_options.skip_rates = {2, 4};
        runtime::KernelSession col_session(module_, "conv_col",
                                           col_options);

        auto member_program = [](const runtime::KernelSession& session,
                                 const std::string& label) {
            const auto* member = session.find_member(label);
            PARAPROX_CHECK(member, "Convolution Separable: member `" +
                                       label + "` not generated");
            return member->program;
        };
        auto exact_row = row_session.members()[0].program;
        auto exact_col = col_session.members()[0].program;
        auto row_rd1 = member_program(row_session, "stencil column rd=1");
        auto row_rd2 = member_program(row_session, "stencil column rd=2");
        auto col_skip2 = member_program(col_session, "reduction #0 skip=2");
        auto col_skip4 = member_program(col_session, "reduction #0 skip=4");

        struct Pipeline {
            std::shared_ptr<const vm::Program> row;
            std::shared_ptr<const vm::Program> col;
            std::string label;
            int aggressiveness;
        };
        auto pipelines = std::make_shared<std::vector<Pipeline>>();
        pipelines->push_back({exact_row, exact_col, "exact", 0});
        // Stencil-only variants (the GPU winners per §4.3).
        pipelines->push_back({row_rd1, exact_col, "stencil rd=1", 1});
        pipelines->push_back({row_rd2, exact_col, "stencil rd=2", 2});
        // Reduction-only variants (the CPU winners per §4.3).
        pipelines->push_back({exact_row, col_skip2, "reduction skip=2", 1});
        pipelines->push_back({exact_row, col_skip4, "reduction skip=4", 2});
        // Combined.
        pipelines->push_back(
            {row_rd1, col_skip2, "stencil rd=1 + reduction skip=2", 3});

        auto run_pipeline = [pipelines, dev, w, h](std::size_t p,
                                                   std::uint64_t seed,
                                                   vm::ExecMode mode) {
            const Pipeline& pipe = (*pipelines)[p];
            Buffer in = Buffer::from_floats(
                make_correlated_image(w, h, seed ^ 0xc09ull));
            Buffer tmp =
                Buffer::zeros_f32(static_cast<std::size_t>(w) * h);
            Buffer out =
                Buffer::zeros_f32(static_cast<std::size_t>(w) * h);
            Buffer weights = Buffer::from_floats(kWeights);

            // The wall leaves the input synthesis above out.
            const runtime::WallTimer wall;
            auto launch_one = [&](const vm::Program& program,
                                  const ArgPack& args,
                                  const LaunchConfig& config) {
                return mode == vm::ExecMode::Fast
                           ? runtime::run_fast_unpriced(program, args,
                                                        config)
                           : runtime::run_priced(program, args, config,
                                                 *dev);
            };

            ArgPack row_args;
            row_args.buffer("in", in).buffer("tmp", tmp).scalar("w", w);
            auto row_run =
                launch_one(*pipe.row, row_args,
                           LaunchConfig::grid2d(w - 16, h, 16, 4));

            ArgPack col_args;
            col_args.buffer("tmp", tmp).buffer("weights", weights)
                .buffer("out", out).scalar("w", w);
            auto col_run =
                launch_one(*pipe.col, col_args,
                           LaunchConfig::grid2d(w - 16, h - 16, 16, 4));

            runtime::VariantRun run;
            run.trapped = row_run.trapped || col_run.trapped;
            run.modeled_cycles =
                row_run.modeled_cycles + col_run.modeled_cycles;
            run.instructions = row_run.instructions + col_run.instructions;
            runtime::attach_output(run, out);
            run.wall_seconds = wall.seconds();
            return run;
        };

        std::vector<runtime::Variant> variants;
        for (std::size_t p = 0; p < pipelines->size(); ++p) {
            runtime::Variant variant;
            variant.label = (*pipelines)[p].label;
            variant.aggressiveness = (*pipelines)[p].aggressiveness;
            variant.run = [run_pipeline, p](const runtime::Input& input) {
                return run_pipeline(p, input.seed(),
                                    vm::ExecMode::Instrumented);
            };
            variant.run_fast = [run_pipeline,
                                p](const runtime::Input& input) {
                return run_pipeline(p, input.seed(), vm::ExecMode::Fast);
            };
            variants.push_back(std::move(variant));
        }
        return variants;
    }

  private:
    int
    dim() const
    {
        const int interior = static_cast<int>(160 * scale_);
        return std::max(32, interior - interior % 16) + 16;
    }

    static const std::vector<float> kWeights;

    ir::Module module_;
    double scale_ = 1.0;
};

const std::vector<float> ConvolutionApp::kWeights = {
    0.000872f, 0.003383f, 0.010558f, 0.026521f, 0.053610f, 0.087208f,
    0.114169f, 0.120295f, 0.166757f, 0.120295f, 0.114169f, 0.087208f,
    0.053610f, 0.026521f, 0.010558f, 0.003383f, 0.000872f};

}  // namespace

std::unique_ptr<Application>
make_gaussian_filter()
{
    StencilAppSpec spec;
    spec.info = {"Gaussian Filter", "Image Processing", "130x130 image",
                 "Stencil", runtime::Metric::MeanRelativeError};
    spec.source = kGaussianSource;
    spec.kernel = "gaussian";
    spec.bind_inputs = bind_image_input;
    return std::make_unique<StencilApp>(std::move(spec));
}

std::unique_ptr<Application>
make_mean_filter()
{
    StencilAppSpec spec;
    spec.info = {"Mean Filter", "Image Processing", "130x130 image",
                 "Stencil", runtime::Metric::MeanRelativeError};
    spec.source = kMeanSource;
    spec.kernel = "mean_filter";
    spec.bind_inputs = bind_image_input;
    return std::make_unique<StencilApp>(std::move(spec));
}

std::unique_ptr<Application>
make_hotspot()
{
    StencilAppSpec spec;
    spec.info = {"HotSpot", "Physics", "130x130 grid",
                 "Stencil-Partition", runtime::Metric::MeanRelativeError};
    spec.source = kHotSpotSource;
    spec.kernel = "hotspot";
    spec.bind_inputs = bind_hotspot;
    return std::make_unique<StencilApp>(std::move(spec));
}

std::unique_ptr<Application>
make_convolution_separable()
{
    return std::make_unique<ConvolutionApp>();
}

}  // namespace paraprox::apps
